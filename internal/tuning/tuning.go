// Package tuning implements online tuning of mapped crossbars (Section
// II-C): after hardware mapping, conductances are nudged with
// constant-amplitude programming pulses whose polarity follows the sign
// of the cost gradient (eq. (5)), until the network reaches its target
// classification accuracy or the iteration budget is exhausted. An
// exhausted budget marks the crossbar as failing — the paper's lifetime
// criterion (150 iterations in Section V).
//
// Every tuning pulse is a real programming operation: it accumulates
// stress on the device it touches and therefore ages the array. The
// feedback loop of Section III — clipping forces more tuning, more
// tuning forces more aging — emerges from this accounting.
package tuning

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/nn"
	"memlife/internal/telemetry"
	"memlife/internal/tensor"
)

// Config parameterizes one tuning run. The JSON tags are the schema of
// the "tuning" section of a scenario spec (internal/spec); TargetAcc
// and Seed are excluded because the lifetime driver injects them per
// deployment cycle.
type Config struct {
	// MaxIters is the iteration budget; the paper uses 150.
	MaxIters int `json:"max_iters"`
	// TargetAcc is the classification accuracy (on the evaluation
	// samples) at which tuning stops.
	TargetAcc float64 `json:"-"`
	// BatchSize is the minibatch size for gradient estimation.
	BatchSize int `json:"batch_size"`
	// StepFrac is the fraction of devices (those with the largest
	// gradient magnitudes, per layer) pulsed each iteration, in (0, 1].
	// Pulsing everything would both over-age the array and overshoot;
	// real tuning controllers prioritize the worst weights.
	StepFrac float64 `json:"step_frac"`
	// Patience stops a run early when the evaluation accuracy has not
	// improved for this many consecutive iterations. Pulsing a stuck
	// array only ages it further, so giving up early preserves the
	// remaining endurance for a re-mapping attempt. Must be >= 1; a
	// value of MaxIters or more never stops early.
	Patience int `json:"patience"`
	// Policy selects the pulse-selection strategy of each tuning
	// iteration: "sign" (or empty, the default) is the paper's
	// gradient-sign step (eq. (5)); "recalib" is AIDX-style periodic
	// scale recalibration, which compensates uniform conductance drift
	// with per-layer digital output gains and falls back to sign pulses
	// only when scaling stalls; "minreprog" is the weight-sorting /
	// bit-stucking reprogramming minimizer, which pulses only the
	// devices with the largest weight errors and accepts stuck cells
	// as-is. See policy.go. The field is omitted from serialization
	// when empty, so pre-policy specs keep their fingerprints.
	Policy string `json:"policy,omitempty"`
	// RetryBudget caps the immediate retries of a tuning pulse that
	// silently failed to move its device (transient programming
	// failure). Every retry is a real pulse: it dissipates the same
	// programming power and accumulates the same stress as a
	// successful one, so retries trade endurance for convergence
	// speed. Permanently stuck devices are never retried — they are
	// skipped outright. Zero disables retries; negative is rejected.
	RetryBudget int `json:"retry_budget"`
	// Seed drives batch shuffling.
	Seed int64 `json:"-"`
}

// Validate checks the "tuning" section of a scenario spec and reports
// every violation at once, each prefixed with its JSON field name.
// Every field means what it says, zero included. TargetAcc is not a
// section field: the lifetime simulation injects it, and Tune checks
// it.
func (c Config) Validate() error {
	var errs []error
	fail := func(path, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	if c.MaxIters < 1 {
		fail("max_iters", "must be >= 1, got %d", c.MaxIters)
	}
	if c.BatchSize < 1 {
		fail("batch_size", "must be >= 1, got %d", c.BatchSize)
	}
	if c.StepFrac <= 0 || c.StepFrac > 1 {
		fail("step_frac", "must be in (0,1], got %g", c.StepFrac)
	}
	if c.Patience < 1 {
		fail("patience", "must be >= 1, got %d", c.Patience)
	}
	if c.RetryBudget < 0 {
		fail("retry_budget", "must be non-negative, got %d", c.RetryBudget)
	}
	if _, err := ParsePolicy(c.Policy); err != nil {
		fail("policy", "%v", err)
	}
	return errors.Join(errs...)
}

// Result reports the outcome of one tuning run.
type Result struct {
	// Iterations is the number of tuning iterations performed before
	// reaching the target (or MaxIters on failure).
	Iterations int
	// Converged reports whether TargetAcc was reached within budget.
	Converged bool
	// FinalAcc is the accuracy at exit.
	FinalAcc float64
	// Pulses and Stress are the programming cost of the run.
	Pulses int64
	Stress float64
	// Retries counts extra pulses spent re-attempting transient
	// programming failures; their stress is included in Stress.
	Retries int64
	// StuckSkipped counts pulse requests dropped because their target
	// device is permanently stuck (no pulse was applied).
	StuckSkipped int64
	// AccTrace records accuracy before each iteration (and the final
	// accuracy as its last element).
	AccTrace []float64
}

// Tune runs the sign-based online tuning loop on mn. Gradient batches
// come from ds; convergence is judged on (evalX, evalY) — in the
// paper's flow both are training data.
//
// Every invocation emits one "tuning/tune" trace span and bumps the
// tuning/* instruments (see telemetry.go); with telemetry disabled the
// wrapper is a handful of nil checks.
func Tune(mn *crossbar.MappedNetwork, ds *dataset.Dataset, evalX *tensor.Tensor, evalY []int, cfg Config) (Result, error) {
	sp := telemetry.StartSpan("tuning/tune")
	res, err := tune(mn, ds, evalX, evalY, cfg)
	recordTuneTel(res, err)
	sp.End(telemetry.Attrs{
		"iterations": res.Iterations,
		"converged":  res.Converged,
		"final_acc":  res.FinalAcc,
		"pulses":     res.Pulses,
		"retries":    res.Retries,
	})
	return res, err
}

func tune(mn *crossbar.MappedNetwork, ds *dataset.Dataset, evalX *tensor.Tensor, evalY []int, cfg Config) (Result, error) {
	var res Result
	if err := cfg.Validate(); err != nil {
		return res, fmt.Errorf("tuning: %w", err)
	}
	if cfg.TargetAcc <= 0 || cfg.TargetAcc > 1 {
		return res, fmt.Errorf("tuning: target accuracy must be in (0,1], got %g", cfg.TargetAcc)
	}
	pol, _ := ParsePolicy(cfg.Policy) // Validate has accepted the name
	rng := tensor.NewRNG(cfg.Seed)
	pulsesBefore := mn.TotalPulses()
	stressBefore := mn.TotalStress()

	batches := ds.Batches(cfg.BatchSize, rng)
	next := 0

	// One arena serves the whole run: after the first iteration sizes
	// its buffers, the gradient-to-pulse stage runs allocation-free.
	var ar arena

	bestAcc := -1.0
	sinceImprovement := 0
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		acc, err := mn.Accuracy(evalX, evalY)
		if err != nil {
			return res, err
		}
		res.AccTrace = append(res.AccTrace, acc)
		if acc >= cfg.TargetAcc {
			res.Converged = true
			res.FinalAcc = acc
			res.Iterations = it
			res.Pulses = mn.TotalPulses() - pulsesBefore
			res.Stress = mn.TotalStress() - stressBefore
			return res, nil
		}
		if acc > bestAcc+1e-9 {
			bestAcc = acc
			sinceImprovement = 0
		} else {
			sinceImprovement++
			if sinceImprovement >= cfg.Patience {
				iters = it
				break
			}
		}
		b := batches[next]
		next = (next + 1) % len(batches)
		retries, skipped, err := pol.Step(mn, b, cfg, &ar)
		if err != nil {
			return res, err
		}
		res.Retries += retries
		res.StuckSkipped += skipped
		iters = it + 1
	}
	finalAcc, err := mn.Accuracy(evalX, evalY)
	if err != nil {
		return res, err
	}
	res.FinalAcc = finalAcc
	res.AccTrace = append(res.AccTrace, res.FinalAcc)
	res.Converged = res.FinalAcc >= cfg.TargetAcc
	res.Iterations = iters
	res.Pulses = mn.TotalPulses() - pulsesBefore
	res.Stress = mn.TotalStress() - stressBefore
	return res, nil
}

// step performs one tuning iteration: estimate gradients on batch b
// through the effective-weight network, then pulse the devices with the
// globally largest gradient magnitudes one level in the -sign(grad)
// direction (eq. (5)). The threshold is shared across layers, so layers
// whose weights see larger gradients — convolutional kernels, whose
// gradients sum over all spatial positions — receive more pulses and
// age faster, reproducing the conv-vs-FC asymmetry of Fig. 11.
func step(mn *crossbar.MappedNetwork, b dataset.Batch, frac float64, retryBudget int, ar *arena) (retries, skipped int64, err error) {
	if err := mn.Refresh(); err != nil {
		return 0, 0, err
	}
	mn.Net.ZeroGrads()
	logits := mn.Net.Forward(b.X, true)
	_, dlogits := nn.SoftmaxCrossEntropy(logits, b.Y)
	mn.Net.Backward(dlogits)

	retries, skipped = applyPulses(mn, frac, retryBudget, ar)
	return retries, skipped, nil
}

// arena holds the reusable scratch of one tuning run: the
// absolute-gradient gather used for the global threshold and the
// per-layer pulse list handed to StepDevices. Buffers grow to steady
// size on the first iteration and are reused for the rest of the run
// (see DESIGN.md "Scratch arenas & buffer ownership").
type arena struct {
	abs   []float64
	steps []crossbar.Step
}

// applyPulses runs the gradient-to-pulse stage of one tuning iteration:
// gather gradient magnitudes, pick the global threshold, and pulse each
// layer's above-threshold devices through the batched StepDevices. With
// a warmed arena this stage performs zero heap allocations. The
// gradients in mn.Layers must be current (step computes them first).
func applyPulses(mn *crossbar.MappedNetwork, frac float64, retryBudget int, ar *arena) (retries, skipped int64) {
	total := 0
	for _, l := range mn.Layers {
		total += l.Param.Grad.Size()
	}
	abs := ar.abs[:0]
	for _, l := range mn.Layers {
		for _, v := range l.Param.Grad.Data() {
			if v < 0 {
				v = -v
			}
			abs = append(abs, v)
		}
	}
	ar.abs = abs
	k := int(float64(total) * frac)
	if k < 1 {
		k = 1
	}
	thr := kthLargestAbs(abs, k)
	if thr == 0 {
		return 0, 0 // gradient vanished; nothing to tune
	}
	for _, l := range mn.Layers {
		r, s := pulseLayer(l, thr, retryBudget, ar)
		retries += r
		skipped += s
	}
	return retries, skipped
}

// pulseLayer applies sign pulses to every device of the layer whose
// gradient magnitude reaches the global threshold, by building the
// layer's pulse list in the arena and applying it with one batched
// StepDevices call (one telemetry flush per layer). The per-device semantics are unchanged: permanently stuck
// devices are skipped — pulsing a dead cell burns endurance-neutral
// write energy for zero movement, so the controller spends its budget
// on cells that can still respond — and a pulse that fails transiently
// is retried up to retryBudget times; every attempt, failed or not,
// ages the device.
func pulseLayer(l *crossbar.MappedLayer, thr float64, retryBudget int, ar *arena) (retries, skipped int64) {
	g := l.Param.Grad.Data()
	cols := l.Crossbar.Cols
	steps := ar.steps[:0]
	for idx, gv := range g {
		a := gv
		if a < 0 {
			a = -a
		}
		if a < thr || a == 0 {
			continue
		}
		dir := -1
		if gv < 0 {
			dir = +1
		}
		steps = append(steps, crossbar.Step{I: idx / cols, J: idx % cols, Dir: dir})
	}
	ar.steps = steps
	st := l.Crossbar.StepDevices(steps, retryBudget)
	return int64(st.Retries), int64(st.StuckSkipped)
}

// kthLargestAbs returns the k-th largest value in abs (1-based): the
// value sort.Float64s would leave at len(abs)-k, clamped to the
// smallest when k > len(abs), with NaN ordered below every number as
// sort.Float64s orders it. It reorders abs in place and runs in
// linear expected time: the NaNs move to the front, then a quickselect
// narrows the rest to the wanted rank. Ties return the tied value; a
// tie between +0 and -0 may return either sign, which no caller can
// tell apart because the threshold is only ever compared.
func kthLargestAbs(abs []float64, k int) float64 {
	idx := len(abs) - k
	if idx < 0 {
		idx = 0
	}
	nans := 0
	for i, v := range abs {
		if v != v {
			abs[i], abs[nans] = abs[nans], v
			nans++
		}
	}
	if idx < nans {
		return abs[idx]
	}
	return selectRank(abs[nans:], idx-nans)
}

// selectRank returns the value at index i of a sorted copy of a, which
// must hold no NaN, reordering a in place. Each round partitions a
// three ways around a median-of-three pivot, into values below, equal
// to and above it, and keeps the part that holds rank i; runs of equal
// values (many exact-zero gradients) leave in one round. A slice that
// survives more rounds than a balanced split needs is sorted instead,
// so the worst case stays O(n log n).
func selectRank(a []float64, i int) float64 {
	for rounds := 2 * bits.Len(uint(len(a))); len(a) > 16 && rounds > 0; rounds-- {
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
		}
		pivot := max(x, y)
		lt, gt := 0, len(a)
		for j := 0; j < gt; {
			switch v := a[j]; {
			case v < pivot:
				a[lt], a[j] = v, a[lt]
				lt++
				j++
			case v > pivot:
				gt--
				a[gt], a[j] = v, a[gt]
			default:
				j++
			}
		}
		switch {
		case i < lt:
			a = a[:lt]
		case i >= gt:
			a, i = a[gt:], i-gt
		default:
			return a[i]
		}
	}
	sort.Float64s(a)
	return a[i]
}
