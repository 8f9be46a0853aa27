package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"memlife/internal/campaign"
	"memlife/internal/fleet"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// ConfigFingerprint hashes the resolved base specs every registered
// experiment derives from at the given scale (both fixtures, default
// seed). Campaigns pin it into their checkpoint fingerprint so a
// journal can only be resumed under the configuration that wrote it —
// if any default a spec serializes changes, the fingerprint changes and
// stale checkpoints fail loudly.
func ConfigFingerprint(fast bool) (string, error) {
	var parts []string
	for _, fixture := range []string{spec.FixtureLeNet, spec.FixtureVGG} {
		fp, err := spec.Defaults(fixture, fast).Fingerprint()
		if err != nil {
			return "", fmt.Errorf("experiments: config fingerprint: %w", err)
		}
		parts = append(parts, fp)
	}
	sum := sha256.Sum256([]byte(strings.Join(parts, "|")))
	return hex.EncodeToString(sum[:8]), nil
}

// ScenarioExperiment is the experiment name under which an ad-hoc
// scenario spec runs through the campaign engine (see ScenarioResolver).
const ScenarioExperiment = "scenario"

// scenarioRun is one executed resolved spec: a fleet simulation when
// the spec carries a fleet block, otherwise a lifetime study with the
// bundle and target it ran against.
type scenarioRun struct {
	fleet  *fleet.Result
	life   lifetime.Result
	bundle *Bundle
	target float64
}

// runScenarioSpec executes a resolved spec at its own run.seed and
// run.fast; the options carry only run plumbing (context, log). A
// fleet block switches the unit of work: the spec describes a
// population of crossbars under traffic, not a single lifetime study,
// and needs no trained bundle. Otherwise it builds (or fetches) the
// trained bundle the fixture section describes, derives the effective
// tuning target, and runs the lifetime simulation.
func runScenarioSpec(s spec.Spec, opt Options) (scenarioRun, error) {
	opt.Fast, opt.Seed = s.Run.Fast, s.Run.Seed
	if s.Fleet != nil {
		res, err := fleet.Run(opt.Context(), *s.Fleet, s.Device, s.Aging, s.TempK, s.Run.Seed)
		return scenarioRun{fleet: &res}, err
	}
	b, err := BundleForSpec(s, opt)
	if err != nil {
		return scenarioRun{}, err
	}
	target, err := specTarget(b, s)
	if err != nil {
		return scenarioRun{}, err
	}
	res, err := runSpec(b, s, opt, target)
	return scenarioRun{life: res, bundle: b, target: target}, err
}

// ScenarioMetrics runs the resolved spec once at the options' seed and
// reduces it to scalar campaign metrics — the serve daemon's unit of
// work. The seed override (opt.Seed) replaces the spec's run.seed, so
// campaign shards of the same spec draw distinct, deterministic seed
// streams exactly like registered experiments do.
func ScenarioMetrics(s spec.Spec, opt Options) (map[string]float64, error) {
	s.Run.Seed = opt.Seed
	r, err := runScenarioSpec(s, opt)
	if err != nil {
		return nil, err
	}
	if r.fleet != nil {
		return r.fleet.Metrics(), nil
	}
	failed := 0.0
	if r.life.Failed {
		failed = 1
	}
	return map[string]float64{
		"lifetime_apps": float64(r.life.Lifetime),
		"final_acc":     r.life.FinalAcc,
		"cycles":        float64(len(r.life.Records)),
		"failed":        failed,
		"target_acc":    r.target,
	}, nil
}

// ScenarioTarget picks one target accuracy per bundle, achievable by
// both the normal and the skewed variant right after a fresh mapping
// (minus a small margin), mirroring the paper's per-network target.
func ScenarioTarget(b *Bundle, opt Options) (float64, error) { return specTarget(b, b.Spec) }

// ScenarioResolver adapts one resolved scenario spec to the campaign
// engine: the single experiment name ScenarioExperiment maps to a
// runner that executes the spec at the shard's derived seed. This is
// what lets the serve daemon reuse the campaign machinery — bounded
// workers, fsynced checkpoints, byte-identical aggregation, crash-safe
// resume — for arbitrary submitted specs that have no registry entry.
func ScenarioResolver(s spec.Spec) campaign.Resolver {
	return func(id string) (campaign.RunnerFunc, bool) {
		if id != ScenarioExperiment {
			return nil, false
		}
		return func(ctx context.Context, sh campaign.Shard, log io.Writer) (campaign.Metrics, error) {
			m, err := ScenarioMetrics(s, Options{Seed: sh.Seed, Log: log, Ctx: ctx})
			return campaign.Metrics(m), err
		}, true
	}
}

// RunScenario executes one resolved scenario spec end to end at its
// own seed and writes a plain-text summary. This is the CLI's
// -scenario path; the options carry only run plumbing (context, log).
func RunScenario(w io.Writer, s spec.Spec, opt Options) error {
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	r, err := runScenarioSpec(s, opt)
	if err != nil {
		return err
	}
	name := s.Name
	if name == "" {
		name = "(unnamed scenario)"
	}
	if res := r.fleet; res != nil {
		fmt.Fprintf(w, "scenario: %s (fleet)\n", name)
		fmt.Fprintf(w, "fingerprint: %s\n", fp)
		fmt.Fprintf(w, "fleet: %d instances, %d ticks, balancer=%s, traffic=%s\n",
			s.Fleet.Instances, s.Fleet.Ticks, s.Fleet.Balancer, s.Fleet.Traffic.Pattern)
		fmt.Fprintf(w, "served: %d  dropped: %d  retunes: %d  remaps: %d\n",
			res.Served, res.Dropped, res.Retunes, res.Remaps)
		fmt.Fprintf(w, "deaths: %d", res.Deaths)
		if res.FirstDeathTick > 0 {
			fmt.Fprintf(w, " (first at tick %d)", res.FirstDeathTick)
		}
		fmt.Fprintf(w, "  replacements: %d (cost %.1f)\n", res.Replacements, res.ReplacementCost)
		fmt.Fprintf(w, "accuracy p50/p99: %.3f / %.3f  latency proxy p50/p99: %.2f / %.2f\n",
			res.AccP50, res.AccP99, res.LatencyP50, res.LatencyP99)
		fmt.Fprintf(w, "final alive fraction: %.2f\n", res.FinalAlive)
		return nil
	}

	b, res := r.bundle, r.life
	fmt.Fprintf(w, "scenario: %s\n", name)
	fmt.Fprintf(w, "fingerprint: %s\n", fp)
	fmt.Fprintf(w, "fixture: %s (%s / %s)  scenario: %s", s.Fixture.Name, b.Name, b.DatasetName, s.Scenario)
	if s.Policy != "" {
		fmt.Fprintf(w, "  policy: %s", s.Policy)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "software accuracy: normal=%.3f skewed=%.3f  target=%.3f\n", b.NormalAcc, b.SkewedAcc, r.target)
	fmt.Fprintf(w, "lifetime: %d applications over %d cycles", res.Lifetime, len(res.Records))
	if res.Failed {
		fmt.Fprint(w, " (failed)")
	} else {
		fmt.Fprint(w, " (censored: simulation budget reached)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "final accuracy: %.3f\n", res.FinalAcc)
	if res.DegradedAtCycle > 0 {
		fmt.Fprintf(w, "degraded service from cycle %d\n", res.DegradedAtCycle)
	}
	return nil
}
