package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/experiments"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/spec"
	"memlife/internal/tensor"
	"memlife/internal/tuning"
)

// fixture is one trained fast LeNet bundle plus the tuning target the
// lifetime runs use, derived the way the experiments derive it: the
// lower of both variants' fresh-mapped accuracies minus the margin.
type fixture struct {
	seed   int64
	spec   spec.Spec
	bundle *experiments.Bundle
	target float64
}

// fixtureSpec is the resolved fast LeNet spec at a fixture seed, with
// serial evaluation.
func fixtureSpec(seed int64) spec.Spec {
	s := spec.Defaults(spec.FixtureLeNet, true)
	s.Run.Seed = seed
	s.Run.Workers = 0
	return s
}

// buildFixture trains (through the experiments bundle cache) and derives
// the target. tr, when non-nil, records one span per stage.
func buildFixture(seed int64, tr *tracer) (*fixture, error) {
	s := fixtureSpec(seed)
	f := &fixture{seed: seed, spec: s}
	var err error
	tr.do("experiments.bundle", func() {
		f.bundle, err = experiments.BundleForSpec(s, experiments.Options{Fast: true, Seed: seed})
	})
	if err != nil {
		return nil, fmt.Errorf("fixture seed %d: %w", seed, err)
	}
	tr.do("lifetime.suggest_target", func() {
		f.target, err = suggestTarget(f.bundle, s)
	})
	if err != nil {
		return nil, fmt.Errorf("fixture seed %d target: %w", seed, err)
	}
	return f, nil
}

func suggestTarget(b *experiments.Bundle, s spec.Spec) (float64, error) {
	var tn, ts float64
	err := b.Exclusive(func() error {
		var err error
		tn, err = lifetime.SuggestTarget(b.Normal, b.TrainDS, s.Device, s.Aging, s.TempK, s.Lifetime.EvalN, s.Run.TargetMargin)
		if err != nil {
			return err
		}
		ts, err = lifetime.SuggestTarget(b.Skewed, b.TrainDS, s.Device, s.Aging, s.TempK, s.Lifetime.EvalN, s.Run.TargetMargin)
		return err
	})
	return min(tn, ts) * s.Run.TargetScale, err
}

// arm is one lifetime run of an op: a scenario on one of the bundle's
// networks under a resolved config.
type arm struct {
	sc  lifetime.Scenario
	net *nn.Network
	cfg lifetime.Config
}

// arms returns the lifetime runs of one op of a lifetime workload.
func (f *fixture) arms(workload string) []arm {
	b := f.bundle
	switch workload {
	case "table1-lenet":
		cfg := f.spec.LifetimeConfig(f.target)
		return []arm{{lifetime.TT, b.Normal, cfg}, {lifetime.STT, b.Skewed, cfg}, {lifetime.STAT, b.Skewed, cfg}}
	case "remap-lenet":
		s := f.spec
		s.Lifetime.BurnInStress = 3
		s.Lifetime.RemapIterFrac = 0.05
		return []arm{{lifetime.STAT, b.Skewed, s.LifetimeConfig(f.target)}}
	}
	panic("perfbench: no lifetime arms for workload " + workload)
}

// runSim is the simulated outcome of one lifetime run. DevicePulses is
// known only from the traced replica (-1 otherwise).
type runSim struct {
	Scenario       string `json:"scenario"`
	LifetimeApps   int64  `json:"lifetime_apps"`
	Cycles         int64  `json:"cycles"`
	Remaps         int64  `json:"remaps"`
	TuneIterations int64  `json:"tune_iterations"`
	DevicePulses   int64  `json:"device_pulses"`
}

func simOf(res lifetime.Result, pulses int64) runSim {
	s := runSim{Scenario: res.Scenario.String(), LifetimeApps: res.Lifetime, Cycles: int64(len(res.Records)), DevicePulses: pulses}
	for _, r := range res.Records {
		s.TuneIterations += int64(r.TuneIters)
		if r.Remapped {
			s.Remaps++
		}
	}
	return s
}

// sameSim compares two op outcomes, ignoring pulse counts either side
// does not know.
func sameSim(a, b []runSim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.DevicePulses < 0 || y.DevicePulses < 0 {
			x.DevicePulses, y.DevicePulses = -1, -1
		}
		if x != y {
			return false
		}
	}
	return true
}

// runOp executes one op through lifetime.RunCtx, untraced.
func runOp(f *fixture, workload string) ([]lifetime.Result, error) {
	var out []lifetime.Result
	for _, a := range f.arms(workload) {
		var res lifetime.Result
		err := f.bundle.Exclusive(func() error {
			snap := a.net.SnapshotParams()
			defer a.net.RestoreParams(snap)
			var err error
			res, err = lifetime.RunCtx(context.Background(), a.net, f.bundle.TrainDS, a.sc, f.spec.Device, f.spec.Aging, f.spec.TempK, a.cfg)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", a.sc, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// layerCounts are the work counts the traced replica observes.
type layerCounts struct {
	mapCalls, candidates                   int
	tuneCalls, tuneIters, tuneEvals, tuned int
}

// runOpTraced executes one op through replicaRun, recording spans.
func runOpTraced(f *fixture, workload string, tr *tracer, lc *layerCounts) ([]lifetime.Result, []int64, error) {
	var out []lifetime.Result
	var pulses []int64
	root := tr.startOp("op")
	defer tr.end(root)
	for _, a := range f.arms(workload) {
		var res lifetime.Result
		var p int64
		err := f.bundle.Exclusive(func() error {
			snap := a.net.SnapshotParams()
			defer a.net.RestoreParams(snap)
			var err error
			res, p, err = replicaRun(tr, lc, a.net, f.bundle.TrainDS, a.sc, f.spec.Device, f.spec.Aging, f.spec.TempK, a.cfg)
			return err
		})
		if err != nil {
			return out, pulses, fmt.Errorf("%s traced: %w", a.sc, err)
		}
		out = append(out, res)
		pulses = append(pulses, p)
	}
	return out, pulses, nil
}

// replicaRun drives the cycle loop of lifetime.RunCtx through the
// packages' public calls, with a span around each call. It must return
// the Result lifetime.RunCtx returns for the same inputs; the caller
// checks that. It also returns the array's programming pulses.
func replicaRun(tr *tracer, lc *layerCounts, net *nn.Network, trainDS *dataset.Dataset, sc lifetime.Scenario,
	p device.Params, model aging.Model, tempK float64, cfg lifetime.Config) (lifetime.Result, int64, error) {

	run := tr.begin("lifetime.run")
	defer tr.end(run)
	res := lifetime.Result{Scenario: sc}
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return res, 0, err
	}
	var mn *crossbar.MappedNetwork
	var err error
	tr.do("crossbar.new", func() {
		mn, err = crossbar.NewMappedNetwork(net, p, model, tempK)
		if err == nil && cfg.TraceStride > 0 {
			mn.SetTraceStride(cfg.TraceStride)
		}
	})
	if err != nil {
		return res, 0, err
	}
	evalDS := trainDS.Subset(cfg.EvalN)
	evalBatch := evalDS.Batches(evalDS.Len(), nil)[0]
	rng := tensor.NewRNG(cfg.Seed)
	tr.do("crossbar.age", func() {
		if cfg.AgingVariability > 0 {
			mn.RandomizeAging(cfg.AgingVariability, rng.Split())
		}
		if cfg.BurnInStress > 0 {
			mn.AddStress(cfg.BurnInStress)
		}
		if cfg.Faults.Enabled() {
			err = mn.SetFaults(cfg.Faults)
		}
	})
	if err != nil {
		return res, 0, err
	}

	mapCfg := cfg.Mapping
	mapCfg.Policy = sc.MappingPolicy()
	if cfg.PolicyOverride != nil {
		mapCfg.Policy = *cfg.PolicyOverride
	}
	doMap := func() (mapping.Result, error) {
		var mr mapping.Result
		var err error
		tr.do("mapping.map", func() { mr, err = mapping.Map(mn, mapCfg, evalBatch.X, evalBatch.Y) })
		lc.mapCalls++
		for _, s := range mr.Selections {
			lc.candidates += len(s.Candidates)
		}
		return mr, err
	}
	if _, err := doMap(); err != nil {
		return res, 0, fmt.Errorf("initial mapping: %w", err)
	}
	tune := func(cycle int, target float64) (tuning.Result, error) {
		tc := cfg.Tuning
		tc.TargetAcc = target
		tc.Seed = cfg.Seed + int64(cycle)
		var tres tuning.Result
		var err error
		tr.do("tuning.tune", func() { tres, err = tuning.Tune(mn, trainDS, evalBatch.X, evalBatch.Y, tc) })
		lc.tuneCalls++
		lc.tuneIters += tres.Iterations
		lc.tuneEvals += len(tres.AccTrace)
		if tres.Converged {
			lc.tuned++
		}
		return tres, err
	}

	effTarget := cfg.TargetAcc
	floor := cfg.TargetAcc * cfg.DegradedAccFrac
	var apps int64
	for cycle := 1; cycle <= cfg.MaxCycles; cycle++ {
		tr.do("crossbar.drift", func() {
			mn.Drift(cfg.DriftSigma, rng)
			if p.Drift.Enabled() {
				mn.StateDrift(p.Drift.DecayFactor(cycle))
			}
		})
		tuneRes, err := tune(cycle, effTarget)
		if err != nil {
			return res, 0, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		rec := lifetime.CycleRecord{
			Cycle:     cycle,
			TuneIters: tuneRes.Iterations,
			Converged: tuneRes.Converged,
			Acc:       tuneRes.FinalAcc,
			Retries:   tuneRes.Retries,
		}
		if !tuneRes.Converged || float64(tuneRes.Iterations) >= cfg.RemapIterFrac*float64(cfg.Tuning.MaxIters) {
			rec.Remapped = true
			mapRes, err := doMap()
			if err != nil {
				return res, 0, fmt.Errorf("cycle %d remap: %w", cycle, err)
			}
			rec.MapClipped = mapRes.Stats.Clipped
			retry, err := tune(cycle+1_000_000, effTarget)
			if err != nil {
				return res, 0, fmt.Errorf("cycle %d retry: %w", cycle, err)
			}
			rec.TuneIters += retry.Iterations
			rec.Converged = retry.Converged
			rec.Acc = retry.FinalAcc
			rec.Retries += retry.Retries
		}
		tr.do("crossbar.readback", func() { rec.ConvUpper, rec.FCUpper = mn.MeanUpperBoundByKind() })
		if !rec.Converged && floor > 0 && effTarget > floor && rec.Acc >= floor {
			effTarget = floor
			rec.Converged = true
			rec.Degraded = true
			if res.DegradedAtCycle == 0 {
				res.DegradedAtCycle = cycle
			}
		}
		tr.do("crossbar.faults", func() {
			mn.AdvanceFaults()
			lrs, hrs := mn.StuckCounts()
			rec.Stuck = lrs + hrs
		})
		res.FinalAcc = rec.Acc
		if !rec.Converged {
			rec.Apps = apps
			res.Records = append(res.Records, rec)
			res.Lifetime = apps
			res.Failed = true
			return res, mn.TotalPulses(), nil
		}
		if res.DegradedAtCycle != 0 {
			rec.Degraded = true
		}
		apps += cfg.AppsPerCycle
		rec.Apps = apps
		res.Records = append(res.Records, rec)
	}
	res.Lifetime = apps
	return res, mn.TotalPulses(), nil
}

// sameResults reports whether the replica reproduced lifetime.RunCtx.
func sameResults(a, b []lifetime.Result) bool { return reflect.DeepEqual(a, b) }

// probeTimes are the per-call probes of the layers every op multiplies:
// medians over probeReps calls on the fixture's skewed network.
type probeTimes struct {
	forwardEval, trainStep, drift, refresh time.Duration
}

const probeReps = 21

func probe(f *fixture) (probeTimes, error) {
	var pt probeTimes
	s := f.spec
	err := f.bundle.Exclusive(func() error {
		net := f.bundle.Skewed
		snap := net.SnapshotParams()
		defer net.RestoreParams(snap)
		defer net.ZeroGrads()
		evalDS := f.bundle.TrainDS.Subset(s.Lifetime.EvalN)
		eval := evalDS.Batches(evalDS.Len(), nil)[0]
		batch := f.bundle.TrainDS.Batches(s.Lifetime.Tuning.BatchSize, nil)[0]
		var fw, ts, dr, rf []float64
		for range probeReps {
			t0 := time.Now()
			net.Forward(eval.X, false)
			fw = append(fw, float64(time.Since(t0)))
			t0 = time.Now()
			logits := net.Forward(batch.X, true)
			_, dlogits := nn.SoftmaxCrossEntropy(logits, batch.Y)
			net.Backward(dlogits)
			ts = append(ts, float64(time.Since(t0)))
		}
		mn, err := crossbar.NewMappedNetwork(net, s.Device, s.Aging, s.TempK)
		if err != nil {
			return err
		}
		if _, err := mapping.Map(mn, mapping.Config{Policy: mapping.Fresh}, nil, nil); err != nil {
			return err
		}
		rng := tensor.NewRNG(f.seed)
		for range probeReps {
			t0 := time.Now()
			mn.Drift(s.Lifetime.DriftSigma, rng)
			t1 := time.Now()
			if err := mn.Refresh(); err != nil {
				return err
			}
			dr = append(dr, float64(t1.Sub(t0)))
			rf = append(rf, float64(time.Since(t1)))
		}
		pt = probeTimes{time.Duration(median(fw)), time.Duration(median(ts)), time.Duration(median(dr)), time.Duration(median(rf))}
		return nil
	})
	return pt, err
}
