package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// crossModelDevices enumerates the device-physics models the cross-model
// table sweeps. The linear model is the paper's abstraction and the
// Table I baseline; the threshold models (MMS, Yacopcic) have state-
// dependent pulse responses that compress near the conductance rails;
// the diffusive model adds lognormal device-to-device and cycle-to-
// cycle variation plus spontaneous relaxation. Sigmas are moderate
// literature-typical values, not fitted constants.
var crossModelDevices = []struct {
	label string
	model device.ModelSpec
}{
	{"linear", device.ModelSpec{}},
	{"mms", device.ModelSpec{Kind: device.ModelMMS}},
	{"yacopcic", device.ModelSpec{Kind: device.ModelYacopcic}},
	{"diffusive", device.ModelSpec{Kind: device.ModelDiffusive, D2D: 0.05, C2C: 0.02}},
}

// crossModelPolicies are the tuning policy arms: the paper's gradient-
// sign controller, AIDX-style scale recalibration, and the weight-
// sorting reprogramming minimizer.
var crossModelPolicies = []string{"sign", "recalib", "minreprog"}

// CrossModelPoint is one (device model, tuning policy) cell of the
// cross-model table.
type CrossModelPoint struct {
	Model    string
	Policy   string
	Lifetime int64
	Censored bool
	FinalAcc float64
	// DegradedAt is the first cycle of degraded (below-target) service;
	// 0 when the array never degraded.
	DegradedAt int
	// MeanIters is the mean per-cycle tuning iteration count — the
	// programming-effort (and therefore aging-rate) proxy that
	// separates the policies.
	MeanIters float64
}

// crossModelArms lays out the cross-model table: the Table I flagship
// scenario (ST+AT, LeNet-5) across the device-model zoo and the
// drift-adaptive tuning policies, 4 models x 3 policies, under the
// moderate point of the fault sweep (1% stuck, fault-aware remapping,
// graceful degradation) with power-law conductance state drift
// enabled. It asks the robustness question behind the whole zoo: do
// the paper's lifetime conclusions survive when the idealized linear
// pulse response is replaced by nonlinear and stochastic device
// physics, and how much lifetime do the drift-adaptive policies buy on
// each? Each arm's label is its campaign metric key prefix.
func crossModelArms() []arm {
	var arms []arm
	for _, m := range crossModelDevices {
		for _, pol := range crossModelPolicies {
			arms = append(arms, arm{m.label + "/" + pol, func(s *spec.Spec) {
				s.Device.Model = m.model
				// Power-law state relaxation toward Gmin, one interval per
				// deployment cycle — the disturbance the recalib policy is
				// built to absorb.
				s.Device.Drift = device.DriftSpec{Nu: 0.05}
				s.Lifetime.Tuning.Policy = pol
				s.Lifetime.Faults = FaultSweepFaults(0.01, s.Run.Seed)
				s.Lifetime.Mapping.FaultAware = true
				s.Lifetime.DegradedAccFrac = 0.5
			}})
		}
	}
	return arms
}

// crossModelPoints maps the results, in crossModelArms order, to
// table cells.
func crossModelPoints(res []lifetime.Result) []CrossModelPoint {
	var points []CrossModelPoint
	for _, m := range crossModelDevices {
		for _, pol := range crossModelPolicies {
			r := res[len(points)] // crossModelArms order
			iters := 0.0
			for _, rec := range r.Records {
				iters += float64(rec.TuneIters)
			}
			if n := len(r.Records); n > 0 {
				iters /= float64(n)
			}
			points = append(points, CrossModelPoint{
				Model:      m.label,
				Policy:     pol,
				Lifetime:   r.Lifetime,
				Censored:   !r.Failed,
				FinalAcc:   r.FinalAcc,
				DegradedAt: r.DegradedAtCycle,
				MeanIters:  iters,
			})
		}
	}
	return points
}

func renderCrossModel(w io.Writer, runs []armRun) {
	var cells [][]string
	for _, p := range crossModelPoints(runs[0].res) {
		degraded := "-"
		if p.DegradedAt > 0 {
			degraded = fmt.Sprintf("cycle %d", p.DegradedAt)
		}
		cells = append(cells, []string{
			p.Model,
			p.Policy,
			lifeCell(p.Lifetime, p.Censored),
			fmt.Sprintf("%.3f", p.FinalAcc),
			degraded,
			fmt.Sprintf("%.1f", p.MeanIters),
		})
	}
	fmt.Fprintln(w, "Cross-model Table I — lifetime vs device model and tuning policy (ST+AT, 1% stuck, state drift nu=0.05)")
	fmt.Fprint(w, analysis.Table(
		[]string{"model", "policy", "lifetime", "final acc", "degraded", "mean iters"},
		cells))
	fmt.Fprintln(w, "models: linear (paper) | mms, yacopcic (threshold/nonlinear) | diffusive (D2D=0.05, C2C=0.02 lognormal)")
	fmt.Fprintln(w, "policies: sign (eq. 5) | recalib (per-layer digital gain refit) | minreprog (weight-sorted pulses, bit-stucking)")
}

// crossModelMetrics flattens the cross-model table into per-cell
// metrics; the (model, policy) grid is fixed, so each cell aggregates
// into its own distribution across campaign seeds.
func crossModelMetrics(runs []armRun) map[string]float64 {
	m := make(map[string]float64)
	for _, pt := range crossModelPoints(runs[0].res) {
		k := pt.Model + "/" + pt.Policy
		m[k+"/life"] = float64(pt.Lifetime)
		m[k+"/final_acc"] = pt.FinalAcc
		m[k+"/degraded_at"] = float64(pt.DegradedAt)
		m[k+"/mean_iters"] = pt.MeanIters
	}
	return m
}

func init() {
	registerArms(armExperiment{
		id:       "crossmodel-table1",
		title:    "Cross-model Table I: lifetime vs device-physics model and tuning policy",
		fixtures: []string{spec.FixtureLeNet},
		// Same serving posture as the fault sweep: a relaxed
		// service-level target so model physics, not target tightness,
		// sets the lifetime.
		base:    func(s *spec.Spec) { s.Run.TargetScale = 0.9 },
		arms:    crossModelArms(),
		render:  renderCrossModel,
		metrics: crossModelMetrics,
	})
}
