package experiments

import (
	"fmt"
	"io"

	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// arm is one lifetime run of an arm experiment: a label and an edit of
// the experiment's base spec. The label names the run in the -v log,
// in errors and, slugged, in campaign metric keys.
type arm struct {
	label string
	edit  func(*spec.Spec)
}

// scenarioArm is the arm that only picks the lifetime scenario.
func scenarioArm(sc lifetime.Scenario) arm {
	return arm{sc.String(), func(s *spec.Spec) { s.Scenario = sc.String() }}
}

// runArms runs the arms of experiment id on bundle b. The tuning target
// is resolved once, from base, so every arm serves the same accuracy
// contract; each arm then edits its own copy of base and runs through
// runSpec, serially and in arm order. Results come back in arm order.
func runArms(id string, b *Bundle, base spec.Spec, arms []arm, opt Options) ([]lifetime.Result, error) {
	target, err := specTarget(b, base)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %s target: %w", id, b.Name, err)
	}
	out := make([]lifetime.Result, len(arms))
	for i, a := range arms {
		s := base
		a.edit(&s)
		res, err := runSpec(b, s, opt, target)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s %s: %w", id, b.Name, a.label, err)
		}
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "%s: %s %s lifetime=%d failed=%v acc=%.3f cycles=%d\n",
				id, b.Name, a.label, res.Lifetime, res.Failed, res.FinalAcc, len(res.Records))
		}
		out[i] = res
	}
	return out, nil
}

// armRun is one bundle's share of an arm experiment: the bundle and its
// results in arm order.
type armRun struct {
	b   *Bundle
	res []lifetime.Result
}

// armExperiment is a lifetime experiment of the arm shape: the same
// arms run on the bundle of each fixture, in fixture order, from the
// bundle's base spec after an optional base tweak.
type armExperiment struct {
	id, title string
	fixtures  []string
	base      func(*spec.Spec) // nil: the bundle's base spec as is
	arms      []arm
	render    func(w io.Writer, runs []armRun)
	// metrics reduces the runs to campaign metrics; nil selects
	// armMetrics, which needs exactly one fixture.
	metrics func(runs []armRun) map[string]float64
}

// armExperiments holds every registered arm experiment by ID.
var armExperiments = map[string]armExperiment{}

func (e armExperiment) run(opt Options) ([]armRun, error) {
	runs := make([]armRun, len(e.fixtures))
	for i, fixture := range e.fixtures {
		b, err := BundleForSpec(BaseSpec(fixture, opt), opt)
		if err != nil {
			return nil, err
		}
		base := b.Spec
		if e.base != nil {
			e.base(&base)
		}
		res, err := runArms(e.id, b, base, e.arms, opt)
		if err != nil {
			return nil, err
		}
		runs[i] = armRun{b, res}
	}
	return runs, nil
}

// registerArms registers an arm experiment; every one is campaign-
// runnable.
func registerArms(e armExperiment) {
	metrics := e.metrics
	if metrics == nil {
		if len(e.fixtures) != 1 {
			panic(fmt.Sprintf("experiments: %s: the generic arm metrics need one fixture", e.id))
		}
		metrics = func(runs []armRun) map[string]float64 { return armMetrics(e.arms, runs[0].res) }
	}
	armExperiments[e.id] = e
	register(Experiment{
		ID:    e.id,
		Title: e.title,
		Run: func(w io.Writer, opt Options) error {
			runs, err := e.run(opt)
			if err != nil {
				return err
			}
			e.render(w, runs)
			return nil
		},
		Metrics: func(opt Options) (map[string]float64, error) {
			runs, err := e.run(opt)
			if err != nil {
				return nil, err
			}
			return metrics(runs), nil
		},
	})
}

// armMetrics is the generic campaign reducer of an arm experiment: per
// arm, "<arm>/life", "<arm>/censored" and "<arm>/cycles", with <arm>
// the slugged arm label.
func armMetrics(arms []arm, res []lifetime.Result) map[string]float64 {
	m := make(map[string]float64, 3*len(arms))
	for i, a := range arms {
		k := metricSlug(a.label)
		m[k+"/life"] = float64(res[i].Lifetime)
		m[k+"/censored"] = boolMetric(!res[i].Failed)
		m[k+"/cycles"] = float64(len(res[i].Records))
	}
	return m
}

// lifeCell renders a lifetime table cell; a censored lifetime (the run
// hit the simulation budget without failing) is a lower bound.
func lifeCell(life int64, censored bool) string {
	if censored {
		return fmt.Sprintf(">=%d", life)
	}
	return fmt.Sprintf("%d", life)
}
