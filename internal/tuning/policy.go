package tuning

import (
	"fmt"
	"math"

	"memlife/internal/crossbar"
	"memlife/internal/dataset"
)

// Policy is the pulse-selection strategy of one tuning iteration: given
// the mapped network and a gradient batch, decide which devices to
// pulse (or how else to recover accuracy) and apply it. Implementations
// are stateless singletons — any run state lives in the arena or on the
// MappedNetwork (layer gains) — so one instance serves concurrent runs.
type Policy interface {
	// Name returns the policy label used in specs and reports.
	Name() string
	// Step performs one tuning iteration on mn using batch b, returning
	// the retry and stuck-skip counts of the pulses it applied.
	Step(mn *crossbar.MappedNetwork, b dataset.Batch, cfg Config, ar *arena) (retries, skipped int64, err error)
}

// ParsePolicy resolves a policy label from a scenario spec or CLI flag.
// The empty string is the sign policy, so pre-policy configs resolve
// unchanged.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "sign":
		return signPolicy{}, nil
	case "recalib":
		return recalibPolicy{}, nil
	case "minreprog":
		return minreprogPolicy{}, nil
	default:
		return nil, fmt.Errorf("tuning: unknown policy %q (want sign, recalib, or minreprog)", s)
	}
}

// signPolicy is the paper's eq. (5) controller: pulse the devices with
// the globally largest gradient magnitudes one step in the -sign(grad)
// direction. It is the default and reproduces the historical tuning
// loop bit-for-bit.
type signPolicy struct{}

// Name implements Policy.
func (signPolicy) Name() string { return "sign" }

// Step implements Policy.
func (signPolicy) Step(mn *crossbar.MappedNetwork, b dataset.Batch, cfg Config, ar *arena) (int64, int64, error) {
	return step(mn, b, cfg.StepFrac, cfg.RetryBudget, ar)
}

// recalibPolicy is AIDX-style periodic scale recalibration (after
// arXiv 2009.00180): conductance state drift is largely a common-mode
// shrink of every device's effective weight, so instead of spending
// programming pulses (and aging) to push conductances back, the
// periphery re-fits one digital output gain per layer,
//
//	alpha_l = <W_eff, W_target> / <W_eff, W_eff>,
//
// the least-squares scale aligning the drifted effective weights with
// the mapping targets. While the gains are still moving the iteration
// is gain-only — zero pulses, zero aging; once scaling stalls (the
// residual error is not a common scale), it falls back to one sign-
// pulse step for the non-uniform remainder. Remapping resets the gains
// (mapping.Map calls ResetGains), so compensation restarts from the
// freshly programmed state.
type recalibPolicy struct{}

// Name implements Policy.
func (recalibPolicy) Name() string { return "recalib" }

// recalibStall is the relative gain change below which scaling is
// considered converged and the policy falls back to sign pulses.
const recalibStall = 1e-3

// recalibGainClamp bounds the per-layer gain so a degenerate readback
// (near-zero effective weights) cannot produce a runaway scale.
const recalibGainClamp = 8.0

// Step implements Policy.
func (recalibPolicy) Step(mn *crossbar.MappedNetwork, b dataset.Batch, cfg Config, ar *arena) (int64, int64, error) {
	if err := mn.Refresh(); err != nil {
		return 0, 0, err
	}
	maxRel := 0.0
	for _, l := range mn.Layers {
		// Param.W holds the gain-applied effective weights after
		// Refresh; with raw = W/gain, the least-squares scale is
		// alpha = <raw,T>/<raw,raw> = gain * <W,T>/<W,W>.
		wd, td := l.Param.W.Data(), l.Target.Data()
		num, den := 0.0, 0.0
		for i, v := range wd {
			num += v * td[i]
			den += v * v
		}
		if !(den > 0) || math.IsNaN(num) || math.IsInf(num, 0) {
			continue
		}
		gain := l.Gain * num / den
		if gain > recalibGainClamp {
			gain = recalibGainClamp
		} else if gain < 1/recalibGainClamp {
			gain = 1 / recalibGainClamp
		}
		rel := math.Abs(gain-l.Gain) / math.Max(math.Abs(l.Gain), 1e-12)
		if rel > maxRel {
			maxRel = rel
		}
		l.Gain = gain
	}
	if maxRel > recalibStall {
		// Scaling is still compensating: a gain-only iteration, no
		// pulses, no aging.
		return 0, 0, nil
	}
	return step(mn, b, cfg.StepFrac, cfg.RetryBudget, ar)
}

// minreprogPolicy is the weight-sorting / bit-stucking reprogramming
// minimizer (after arXiv 2410.21730): instead of following gradients,
// it reads the per-device weight error against the mapping target,
// sorts globally, and pulses only the StepFrac fraction with the
// largest errors — and of those, only the ones whose error exceeds half
// a tuning step (pulsing inside the dead-band would overshoot and
// invite a pulse war). Stuck devices are accepted as-is (bit-stucking)
// and transient failures are never retried: every avoided pulse is
// endurance kept.
type minreprogPolicy struct{}

// Name implements Policy.
func (minreprogPolicy) Name() string { return "minreprog" }

// Step implements Policy.
func (minreprogPolicy) Step(mn *crossbar.MappedNetwork, b dataset.Batch, cfg Config, ar *arena) (int64, int64, error) {
	if err := mn.Refresh(); err != nil {
		return 0, 0, err
	}
	total := 0
	for _, l := range mn.Layers {
		total += l.Param.W.Size()
	}
	abs := ar.abs[:0]
	for _, l := range mn.Layers {
		wd, td := l.Param.W.Data(), l.Target.Data()
		for i, v := range wd {
			e := td[i] - v
			if e < 0 {
				e = -e
			}
			abs = append(abs, e)
		}
	}
	ar.abs = abs
	k := int(float64(total) * cfg.StepFrac)
	if k < 1 {
		k = 1
	}
	thr := kthLargestAbs(abs, k)
	if thr == 0 {
		return 0, 0, nil // already on target everywhere
	}
	var skipped int64
	for _, l := range mn.Layers {
		// The dead-band is half a tuning pulse expressed in weight
		// units under the layer's current mapping ranges.
		cut := thr
		if dead := 0.5 * weightStep(l); dead > cut {
			cut = dead
		}
		wd, td := l.Param.W.Data(), l.Target.Data()
		cols := l.Crossbar.Cols
		steps := ar.steps[:0]
		for idx, v := range wd {
			e := td[idx] - v
			a := e
			if a < 0 {
				a = -a
			}
			if a < cut || a == 0 {
				continue
			}
			dir := +1
			if e < 0 {
				dir = -1
			}
			steps = append(steps, crossbar.Step{I: idx / cols, J: idx % cols, Dir: dir})
		}
		ar.steps = steps
		st := l.Crossbar.StepDevices(steps, 0) // bit-stucking: no retries
		skipped += int64(st.StuckSkipped)
	}
	return 0, skipped, nil
}

// weightStep converts one tuning-pulse conductance step into weight
// units under the layer's current mapping ranges (eq. (4) slope).
// Returns 0 before the first mapping or on degenerate ranges, which
// disables the dead-band.
func weightStep(l *crossbar.MappedLayer) float64 {
	wMin, wMax, ok := l.Crossbar.WeightRange()
	if !ok {
		return 0
	}
	rLo, rHi, ok := l.Crossbar.MapRange()
	if !ok {
		return 0
	}
	gSpan := 1/rLo - 1/rHi
	if !(gSpan > 0) || !(wMax > wMin) {
		return 0
	}
	return l.Crossbar.Params().TunePulseDeltaG() * (wMax - wMin) / gSpan
}
