package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/fault"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// faultSweepRates are the stuck-device rates the sweep evaluates.
var faultSweepRates = []float64{0, 0.01, 0.05}

// FaultSweepFaults returns the fault-injection config of the sweep at
// one stuck rate. The sweep treats the rate as a single process-corner
// severity axis: arrays with more stuck cells also suffer
// proportionally more transient write failures and read-noise bursts,
// so every fault channel scales together and rate 0 is a genuinely
// clean array (the Table I baseline). The structural draws are nested
// (a device stuck at 1% is also stuck at 5% under the same seed), so
// moving along the axis only ever adds defects.
func FaultSweepFaults(rate float64, seed int64) fault.Config {
	return fault.Config{
		StuckRate: rate,
		// All stuck devices fuse at LRS: the max-conductance polarity,
		// whose parasitic column current dominates the accuracy damage
		// (a stuck-HRS cell merely loses one weight).
		LRSFrac: 1.0,
		// Transient write failures scale steeply with the defect rate
		// (a worse process corner degrades write margin array-wide), so
		// retries burn systematically more endurance at every step of
		// the sweep.
		TransientProb: 4 * rate,
		// Wear-out hazard calibrated against the measured stress
		// distribution: by end of life a T+T array's median device has
		// accumulated ~6-7 units of stress and its 98th percentile
		// ~11-17, so a mean capacity of 40 makes the heavily stressed
		// tail wear out in service while lightly stressed (skewed)
		// arrays barely lose devices — the aging-correlated hazard.
		HazardScale:    40,
		HazardSpread:   0.5,
		ReadBurstProb:  rate / 2,
		ReadBurstSigma: 0.02,
		Seed:           seed,
	}
}

// FaultSweepPoint is one (stuck rate, scenario, tolerance arm) result.
type FaultSweepPoint struct {
	Rate     float64
	Scenario lifetime.Scenario
	// Aware reports whether fault-aware remapping was enabled; the
	// false arm at the highest rate is the ablation.
	Aware    bool
	Lifetime int64
	Censored bool
	FinalAcc float64
	// DegradedAt is the first cycle of degraded (below-target) service;
	// 0 when the array never degraded.
	DegradedAt int
	// Stuck is the stuck-device count at the end of the run.
	Stuck int
}

// faultSweepGrid lays out the sweep: lifetime and delivered accuracy
// versus the stuck-device rate for the three scenarios of Table I, with
// fault-tolerant operation enabled (retry budget, stuck-skip, fault-
// aware remapping, graceful degradation to a 50% accuracy floor). At
// the highest rate it adds one ablation arm with fault-aware remapping
// disabled, quantifying what the tolerance mechanisms buy. The points
// carry only their coordinates; faultSweepPoints fills in the results.
func faultSweepGrid() []FaultSweepPoint {
	var grid []FaultSweepPoint
	for _, rate := range faultSweepRates {
		for _, sc := range []lifetime.Scenario{lifetime.TT, lifetime.STT, lifetime.STAT} {
			grid = append(grid, FaultSweepPoint{Rate: rate, Scenario: sc, Aware: true})
		}
	}
	return append(grid, FaultSweepPoint{Rate: faultSweepRates[len(faultSweepRates)-1], Scenario: lifetime.STAT})
}

// faultSweepKey is a point's campaign metric key prefix and arm label.
// The stuck-rate axis is part of the key (the rates are a fixed grid,
// not per-seed values), so each (rate, scenario, arm) lifetime
// aggregates into its own distribution.
func faultSweepKey(pt FaultSweepPoint) string {
	k := fmt.Sprintf("r%g/%s", pt.Rate*100, scenarioSlug(pt.Scenario))
	if !pt.Aware {
		k += "-noremap"
	}
	return k
}

func faultSweepArms() []arm {
	grid := faultSweepGrid()
	arms := make([]arm, len(grid))
	for i, pt := range grid {
		arms[i] = arm{faultSweepKey(pt), func(s *spec.Spec) {
			s.Scenario = pt.Scenario.String()
			s.Lifetime.Faults = FaultSweepFaults(pt.Rate, s.Run.Seed)
			s.Lifetime.Mapping.FaultAware = pt.Aware
			s.Lifetime.DegradedAccFrac = 0.5
		}}
	}
	return arms
}

func faultSweepPoints(res []lifetime.Result) []FaultSweepPoint {
	points := faultSweepGrid()
	for i, r := range res {
		pt := &points[i]
		pt.Lifetime, pt.Censored = r.Lifetime, !r.Failed
		pt.FinalAcc, pt.DegradedAt = r.FinalAcc, r.DegradedAtCycle
		if n := len(r.Records); n > 0 {
			pt.Stuck = r.Records[n-1].Stuck
		}
	}
	return points
}

func renderFaultSweep(w io.Writer, runs []armRun) {
	var cells [][]string
	for _, p := range faultSweepPoints(runs[0].res) {
		degraded := "-"
		if p.DegradedAt > 0 {
			degraded = fmt.Sprintf("cycle %d", p.DegradedAt)
		}
		remap := "fault-aware"
		if !p.Aware {
			remap = "plain (ablation)"
		}
		cells = append(cells, []string{
			fmt.Sprintf("%.0f%%", p.Rate*100),
			p.Scenario.String(),
			remap,
			lifeCell(p.Lifetime, p.Censored),
			fmt.Sprintf("%.3f", p.FinalAcc),
			degraded,
			fmt.Sprintf("%d", p.Stuck),
		})
	}
	fmt.Fprintln(w, "Fault sweep — lifetime and delivered accuracy vs stuck-device rate")
	fmt.Fprint(w, analysis.Table(
		[]string{"stuck", "scenario", "remapping", "lifetime", "final acc", "degraded", "stuck devices"},
		cells))
	fmt.Fprintln(w, "tolerance: pulse-retry budget + stuck-skip tuning + fault-aware remap + graceful degradation (0.5x accuracy floor)")
}

// faultSweepMetrics flattens the fault sweep into per-arm metrics.
func faultSweepMetrics(runs []armRun) map[string]float64 {
	m := make(map[string]float64)
	for _, pt := range faultSweepPoints(runs[0].res) {
		k := faultSweepKey(pt)
		m[k+"/life"] = float64(pt.Lifetime)
		m[k+"/final_acc"] = pt.FinalAcc
		m[k+"/stuck"] = float64(pt.Stuck)
		m[k+"/degraded_at"] = float64(pt.DegradedAt)
	}
	return m
}

func init() {
	registerArms(armExperiment{
		id:       "fault-sweep",
		title:    "Fault sweep: lifetime vs stuck-device rate under fault-tolerant operation",
		fixtures: []string{spec.FixtureLeNet},
		// The clean-array target of Table I sits a hair under the fresh
		// hardware accuracy; on a defective array that tightness turns
		// every small fault deficit into a tuning/remap death spiral.
		// The sweep therefore serves at a relaxed service-level target
		// (90% of the clean target), leaving the tolerance mechanisms an
		// operating band in which defect density — not target
		// tightness — sets the lifetime.
		base:    func(s *spec.Spec) { s.Run.TargetScale = 0.9 },
		arms:    faultSweepArms(),
		render:  renderFaultSweep,
		metrics: faultSweepMetrics,
	})
}
