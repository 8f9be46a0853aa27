package main

import (
	"fmt"
	"path/filepath"
	"time"

	"memlife/internal/lifetime"
	"memlife/internal/telemetry"
)

// panelSeeds are the fixture seeds of the lifetime workloads: the
// default seed of `memlife -run table1 -fast` and the next one. The
// panel is fixed because the cost of a lifetime op depends strongly on
// its fixture and simulation seed (see NOTES.md); the workload seed only
// rotates the order in which ops visit the panel.
var panelSeeds = []int64{1, 2}

// fixtureSeed derives the i-th fixture seed of a workload seed
// (splitmix64; positive and non-zero, as specs require).
func fixtureSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>2) + 1
}

// setupFixtures trains the fixtures of the given seeds and returns them
// with each one's build time.
func setupFixtures(seeds []int64) ([]*fixture, []time.Duration, error) {
	var fx []*fixture
	var ts []time.Duration
	for _, seed := range seeds {
		t0 := time.Now()
		f, err := buildFixture(seed, nil)
		if err != nil {
			return nil, nil, err
		}
		ts = append(ts, time.Since(t0))
		fx = append(fx, f)
	}
	return fx, ts, nil
}

// simsOf reduces an op's results; pulses may be nil (unknown).
func simsOf(res []lifetime.Result, pulses []int64) []runSim {
	out := make([]runSim, len(res))
	for i, r := range res {
		p := int64(-1)
		if pulses != nil {
			p = pulses[i]
		}
		out[i] = simOf(r, p)
	}
	return out
}

// runLifetimeWorkload runs table1-lenet or remap-lenet: fixtures are
// trained in set-up, then ops (one op = the workload's lifetime runs on
// one fixture) cycle through them until the measuring time is used up.
func runLifetimeWorkload(o options) (*report, error) {
	rep := newReport()
	fx, setup, err := setupFixtures(panelSeeds)
	if err != nil {
		return nil, err
	}
	chk := newChecker(o)
	rot := int(uint64(o.seed) % uint64(len(fx)))
	fx = append(fx[rot:], fx[:rot]...)
	if o.trace {
		return rep, traceLifetime(o, fx, chk, rep)
	}
	var times []time.Duration
	var t tally
	start := time.Now()
	// Whole rounds over the panel, so every run weighs the fixtures alike.
	for n := 0; n%len(fx) != 0 || n == 0 || time.Since(start).Seconds() < o.seconds; n++ {
		idx := n % len(fx)
		t0 := time.Now()
		res, err := runOp(fx[idx], o.workload)
		times = append(times, time.Since(t0))
		oc := outcome{err: err}
		if err == nil {
			oc.mismatch = !chk.lifetime(fx[idx].seed, simsOf(res, nil))
		} else {
			logf("op %d: %v", n, err)
		}
		t.add(oc)
		logf("op %d on fixture seed %d: %.3fs", n, fx[idx].seed, times[n].Seconds())
	}
	elapsed := time.Since(start)
	rep.set("setup_s", median(durations(setup)), "s")
	rep.set("ops_per_s", float64(len(times))/elapsed.Seconds(), "1/s")
	rep.set("op_s_p50", median(durations(times)), "s")
	rep.set("max_rss_mb", maxRSSMB(), "MB")
	rep.setTally(t)
	return rep, nil
}

// traceLifetime runs, for every fixture, one untraced op through
// lifetime.RunCtx and then the same op through the traced replica, and
// reports the per-layer metrics. The replica must reproduce RunCtx's
// results exactly.
func traceLifetime(o options, fx []*fixture, chk *checker, rep *report) error {
	tr := newTracer()
	reg := telemetry.NewRegistry()
	var lc layerCounts
	var t tally
	var untraced, traced time.Duration
	var sum runSim
	for idx, f := range fx {
		telemetry.SetGlobal(nil)
		t0 := time.Now()
		res, err := runOp(f, o.workload)
		untraced += time.Since(t0)
		if err != nil {
			return err
		}
		telemetry.SetGlobal(reg)
		t0 = time.Now()
		tres, pulses, err := runOpTraced(f, o.workload, tr, &lc)
		traced += time.Since(t0)
		telemetry.SetGlobal(nil)
		if err != nil {
			return err
		}
		sims := simsOf(tres, pulses)
		for _, s := range sims {
			sum.LifetimeApps += s.LifetimeApps
			sum.Cycles += s.Cycles
			sum.Remaps += s.Remaps
			sum.TuneIterations += s.TuneIterations
			sum.DevicePulses += s.DevicePulses
		}
		oc := outcome{mismatch: !sameResults(res, tres)}
		if oc.mismatch {
			logf("fixture %d: traced replica diverged from lifetime.RunCtx", idx)
		}
		if !chk.lifetime(f.seed, sims) {
			oc.mismatch = true
			logf("fixture %d: simulated outputs differ from the reference", idx)
		}
		t.add(oc)
	}
	rep.setTally(t)
	if err := tr.write(filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
		return err
	}

	ops := float64(len(fx))
	lt := tr.layers()
	hits := float64(reg.Counter("crossbar/cache_hits").Value())
	misses := float64(reg.Counter("crossbar/cache_misses").Value())
	pt, err := probe(fx[0])
	if err != nil {
		return err
	}
	setLayerMetrics(rep, layerMetrics{
		ops:        ops,
		lt:         lt,
		lc:         lc,
		cacheHit:   hits / max(hits+misses, 1),
		probes:     pt,
		trainSteps: float64(lc.tuneIters),
	})
	setSimMetrics(rep, sum)
	rep.set("trace.overhead_frac", (traced-untraced).Seconds()/untraced.Seconds(), "frac")
	return nil
}

// layerMetrics carries what a traced run measured into the report.
type layerMetrics struct {
	ops        float64
	lt         layerTimes
	lc         layerCounts
	cacheHit   float64
	probes     probeTimes
	trainSteps float64 // training and tuning steps per op, in total
	evals      float64 // eval forwards outside mapping and tuning, in total
}

// setLayerMetrics writes the per-layer metrics every workload reports;
// serve-only metrics are set by the serve workload (and zero here).
func setLayerMetrics(rep *report, m layerMetrics) {
	per := func(d time.Duration) float64 { return d.Seconds() / m.ops }
	lc := m.lc
	mapS := m.lt.total["mapping.map"]
	tuneS := m.lt.total["tuning.tune"]
	rep.set("mapping.map_s", per(mapS), "s")
	rep.set("mapping.calls", float64(lc.mapCalls)/m.ops, "count")
	rep.set("mapping.candidates", float64(lc.candidates)/m.ops, "count")
	rep.set("mapping.s_per_candidate", mapS.Seconds()/float64(max(lc.candidates, 1)), "s")
	rep.set("tuning.tune_s", per(tuneS), "s")
	rep.set("tuning.calls", float64(lc.tuneCalls)/m.ops, "count")
	rep.set("tuning.iterations", float64(lc.tuneIters)/m.ops, "count")
	rep.set("tuning.s_per_iteration", tuneS.Seconds()/float64(max(lc.tuneIters, 1)), "s")
	rep.set("tuning.converged_ratio", float64(lc.tuned)/float64(max(lc.tuneCalls, 1)), "ratio")
	rep.set("nn.forward_eval_s", m.probes.forwardEval.Seconds(), "s")
	rep.set("nn.forward_evals", (float64(lc.candidates+lc.tuneEvals)+m.evals)/m.ops, "count")
	rep.set("nn.train_step_s", m.probes.trainStep.Seconds(), "s")
	rep.set("nn.train_steps", m.trainSteps/m.ops, "count")
	rep.set("crossbar.refresh_s", m.probes.refresh.Seconds(), "s")
	rep.set("crossbar.drift_s", m.probes.drift.Seconds(), "s")
	rep.set("crossbar.cache_hit_ratio", m.cacheHit, "ratio")
	rep.set("crossbar.self_s", per(m.lt.self["crossbar"]), "s")
	rep.set("lifetime.self_s", per(m.lt.self["lifetime"]), "s")
	rep.set("experiments.bundle_s", per(m.lt.total["experiments.bundle"]), "s")
	rep.set("lifetime.suggest_target_s", per(m.lt.total["lifetime.suggest_target"]), "s")
	rep.set("trace.op_s", per(m.lt.ops), "s")
	rep.set("trace.uncovered_s", per(m.lt.uncovered), "s")
	for _, n := range []string{"server.submit_new_s_p50", "server.submit_cached_s_p50", "server.job_run_s_mean", "campaign.shard_s_mean", "campaign.checkpoint_fsync_s_mean"} {
		rep.set(n, 0, "s")
	}
	rep.set("server.cache_hit_ratio", 0, "ratio")
}

// setSimMetrics writes the simulated counts of one op.
func setSimMetrics(rep *report, s runSim) {
	rep.set("sim.lifetime_apps", float64(s.LifetimeApps), "count")
	rep.set("sim.cycles", float64(s.Cycles), "count")
	rep.set("sim.remaps", float64(s.Remaps), "count")
	rep.set("sim.tune_iterations", float64(s.TuneIterations), "count")
	rep.set("sim.device_pulses", float64(s.DevicePulses), "count")
}

// fixtureOpSeconds is the nominal cost of one fixture-lenet op; the
// workload runs a fixed number of ops, -seconds / fixtureOpSeconds,
// because every built bundle stays in the experiments cache and peak
// memory grows with the op count.
const fixtureOpSeconds = 2.5

// runFixtureWorkload runs fixture-lenet: each op builds a fresh fast
// LeNet bundle (new fixture seed) and derives its target. The traced
// variant traces every other op, so the untraced ones between them
// give the tracing overhead.
func runFixtureWorkload(o options) (*report, error) {
	rep := newReport()
	_, setup, err := setupFixtures(panelSeeds)
	if err != nil {
		return nil, err
	}
	chk := newChecker(o)
	n := max(1, int(o.seconds/fixtureOpSeconds+0.5))
	tr := newTracer()
	var times, tracedTimes []time.Duration
	var t tally
	var last *fixture
	start := time.Now()
	for i := 0; i < n; i++ {
		var opTr *tracer
		if o.trace && i%2 == 1 {
			opTr = tr
		}
		t0 := time.Now()
		root := opTr.startOp("op")
		f, err := buildFixture(fixtureSeed(o.seed, i), opTr)
		opTr.end(root)
		if opTr != nil {
			tracedTimes = append(tracedTimes, time.Since(t0))
		} else {
			times = append(times, time.Since(t0))
		}
		logf("op %d: %.3fs", i, time.Since(t0).Seconds())
		oc := outcome{err: err}
		if err == nil {
			last = f
			b := f.bundle
			oc.mismatch = !chk.fixture(i, fixtureSim{Seed: f.seed, NormalAcc: b.NormalAcc, SkewedAcc: b.SkewedAcc, Target: f.target})
		} else {
			logf("op %d: %v", i, err)
		}
		t.add(oc)
	}
	elapsed := time.Since(start)
	rep.setTally(t)
	if !o.trace {
		rep.set("setup_s", median(durations(setup)), "s")
		rep.set("ops_per_s", float64(len(times))/elapsed.Seconds(), "1/s")
		rep.set("op_s_p50", median(durations(times)), "s")
		rep.set("max_rss_mb", maxRSSMB(), "MB")
		return rep, nil
	}
	if last == nil || len(tracedTimes) == 0 {
		return nil, fmt.Errorf("fixture-lenet needs at least two ops to trace (-seconds %g)", o.seconds)
	}
	if err := tr.write(filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	pt, err := probe(last)
	if err != nil {
		return nil, err
	}
	// Per op: two trainings of epochs x ceil(TrainN/BatchSize) steps,
	// and one eval forward in each of the two SuggestTarget calls.
	traced := float64(len(tracedTimes))
	steps := 2 * fixtureEpochs * ((last.bundle.TrainDS.Len() + fixtureBatch - 1) / fixtureBatch)
	setLayerMetrics(rep, layerMetrics{ops: traced, lt: tr.layers(), probes: pt,
		trainSteps: float64(steps) * traced, evals: 2 * traced})
	setSimMetrics(rep, runSim{})
	meanTraced := sumDur(tracedTimes).Seconds() / traced
	meanUntraced := sumDur(times).Seconds() / float64(len(times))
	rep.set("trace.overhead_frac", meanTraced/meanUntraced-1, "frac")
	return rep, nil
}

// The fast LeNet fixture's training budget (experiments.buildLeNetBundle).
const (
	fixtureEpochs = 8
	fixtureBatch  = 32
)

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
