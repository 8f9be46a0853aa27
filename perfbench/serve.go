package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memlife/internal/campaign"
	"memlife/internal/server"
	"memlife/internal/telemetry"
)

const (
	// serveClients is the closed loop's client count.
	serveClients = 2
	// serveSetupReps is how many times set-up starts a daemon and runs
	// a warm-up job; setup_s is their median.
	serveSetupReps = 3
	// serveCachedEvery makes one in every serveCachedEvery submissions
	// re-submit a finished spec.
	serveCachedEvery = 4
	// servePoll is the job-status polling interval.
	servePoll = 2 * time.Millisecond
	// serveRunSeed is the run seed of every submitted spec. It is fixed
	// so that all jobs share one fixture and cost the same; the workload
	// seed drives the submission mix and the specs' apps_per_cycle.
	serveRunSeed = 1
	// serveBaseApps is the warm-up spec's apps_per_cycle; submitted
	// specs add a distinct offset to it.
	serveBaseApps = 1_000_000
)

// serveSpec is a serve-smoke-sized scenario (2 cycles): specs differ
// only in apps_per_cycle, which scales lifetime_apps and nothing else.
func serveSpec(apps int64) []byte {
	return []byte(fmt.Sprintf(`{"version":1,"fixture":{"name":"lenet"},"scenario":"ST+AT",`+
		`"run":{"fast":true,"seed":%d},"lifetime":{"max_cycles":2,"eval_n":64,"apps_per_cycle":%d}}`, serveRunSeed, apps))
}

// daemon is one in-process server over a temporary store.
type daemon struct {
	srv  *server.Server
	base string
	dir  string
}

func startDaemon(root string) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Dir: dir, Addr: "127.0.0.1:0", JobWorkers: 1, ShardWorkers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	return &daemon{srv: srv, base: "http://" + srv.Addr(), dir: dir}, nil
}

// stop drains the daemon and removes its store.
func (d *daemon) stop() error {
	err := d.srv.Drain()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// jobReply is the subset of the job envelope the client reads.
type jobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// resultDoc is the subset of the stored result document the client
// checks: the campaign aggregates (one seed, so each mean is the value).
type resultDoc struct {
	Result struct {
		Aggregates []struct {
			Metric string  `json:"metric"`
			Mean   float64 `json:"mean"`
		} `json:"aggregates"`
	} `json:"result"`
}

// serveOp is one closed-loop op: submit, poll until the job ends, read
// the result.
type serveOp struct {
	apps     int64
	cached   bool // expected to be answered from the store
	latency  time.Duration
	submit   time.Duration // the POST alone
	poll     time.Duration
	fetch    time.Duration
	outcome  outcome
	sim      serveSim
	gotCache bool // the daemon reported a store hit
}

var httpClient = &http.Client{Timeout: 60 * time.Second}

func getJSON(url string, v any) (int, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// run performs the op against base and checks the job's outputs.
func (op *serveOp) run(base string) {
	t0 := time.Now()
	defer func() { op.latency = time.Since(t0) }()
	resp, err := httpClient.Post(base+"/v1/jobs?seeds=1", "application/json", bytes.NewReader(serveSpec(op.apps)))
	if err != nil {
		op.outcome.err = err
		return
	}
	var job jobReply
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op.submit = time.Since(t0)
	op.outcome.status = resp.StatusCode
	if err != nil || resp.StatusCode/100 != 2 {
		op.outcome.err = err
		return
	}
	if err := json.Unmarshal(b, &job); err != nil {
		op.outcome.err = err
		return
	}
	op.gotCache = job.Cached
	t1 := time.Now()
	for job.State != "done" && job.State != "failed" {
		time.Sleep(servePoll)
		status, err := getJSON(base+"/v1/jobs/"+job.ID, &job)
		if err != nil || status != http.StatusOK {
			op.outcome.status, op.outcome.err = status, err
			return
		}
	}
	op.poll = time.Since(t1)
	op.outcome.jobState = job.State
	if job.State != "done" {
		op.outcome.err = fmt.Errorf("job %s: %s", job.ID, job.Error)
		return
	}
	t2 := time.Now()
	var doc resultDoc
	status, err := getJSON(base+"/v1/results/"+job.ID, &doc)
	op.fetch = time.Since(t2)
	if err != nil || status != http.StatusOK {
		op.outcome.status, op.outcome.err = status, err
		return
	}
	m := map[string]float64{}
	for _, a := range doc.Result.Aggregates {
		m[a.Metric] = a.Mean
	}
	op.sim = serveSim{Cycles: m["cycles"], Failed: m["failed"], FinalAcc: m["final_acc"], TargetAcc: m["target_acc"]}
	served := op.sim.Cycles - op.sim.Failed
	if m["lifetime_apps"] != served*float64(op.apps) || op.gotCache != op.cached {
		op.outcome.mismatch = true
	}
}

// clientOps generates client c's op sequence from the workload seed:
// every serveCachedEvery-th submission re-submits one of the client's
// own earlier specs (finished by then, since the loop is closed), the
// rest submit a spec no one has submitted before. The seed picks the
// phase of the pattern and which earlier spec each re-submission
// repeats. An exact ratio, rather than a random draw per op, keeps the
// mix, and with it the throughput, the same in every run.
func clientOps(seed int64, c, n int) []serveOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	phase := rng.Intn(serveCachedEvery)
	ops := make([]serveOp, 0, n)
	var mine []int64
	for k := 0; k < n; k++ {
		if len(mine) > 0 && (k+phase)%serveCachedEvery == serveCachedEvery-1 {
			ops = append(ops, serveOp{apps: mine[rng.Intn(len(mine))], cached: true})
			continue
		}
		apps := serveBaseApps + int64(1+k*serveClients+c)
		mine = append(mine, apps)
		ops = append(ops, serveOp{apps: apps})
	}
	return ops
}

// closedLoop runs serveClients clients against base for the given time
// and returns every op that ran, in completion order per client.
func closedLoop(base string, seed int64, d time.Duration) []serveOp {
	var wg sync.WaitGroup
	done := make([][]serveOp, serveClients)
	deadline := time.Now().Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// 4096 ops is far beyond what a measuring window completes.
			for _, op := range clientOps(seed, c, 4096) {
				if !time.Now().Before(deadline) {
					return
				}
				op.run(base)
				done[c] = append(done[c], op)
			}
		}(c)
	}
	wg.Wait()
	var all []serveOp
	for _, ops := range done {
		all = append(all, ops...)
	}
	return all
}

// serveSetup starts serveSetupReps daemons in turn, each on a fresh
// store, runs the warm-up job on each, and keeps the last one running.
// The first warm-up trains the shared fixture.
func serveSetup(o options, chk *checker) (*daemon, []time.Duration, error) {
	var times []time.Duration
	var d *daemon
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(o.dir); err != nil {
			return nil, nil, err
		}
		op := serveOp{apps: serveBaseApps}
		op.run(d.base)
		times = append(times, time.Since(t0))
		if op.outcome.failed() || !chk.serve(op.sim) {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up job failed: %+v", op.outcome)
		}
	}
	return d, times, nil
}

// tallyServe counts the ops and checks their simulated outputs.
func tallyServe(ops []serveOp, chk *checker) tally {
	var t tally
	for _, op := range ops {
		if !op.outcome.failed() && !chk.serve(op.sim) {
			op.outcome.mismatch = true
		}
		if op.outcome.failed() {
			logf("op apps=%d failed: %+v", op.apps, op.outcome)
		}
		t.add(op.outcome)
	}
	return t
}

func latencies(ops []serveOp, pick func(serveOp) (time.Duration, bool)) []float64 {
	var out []float64
	for _, op := range ops {
		if d, ok := pick(op); ok {
			out = append(out, d.Seconds())
		}
	}
	return out
}

func opLatency(op serveOp) (time.Duration, bool)  { return op.latency, true }
func newLatency(op serveOp) (time.Duration, bool) { return op.latency, !op.cached }

// runServeWorkload runs serve-jobs: an in-process daemon under a closed
// loop of serveClients clients.
func runServeWorkload(o options) (*report, error) {
	rep := newReport()
	chk := newChecker(o)
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// Half the window untraced, half traced, on the same op sequence.
		window /= 2
	}
	d, setup, err := serveSetup(o, chk)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ops := closedLoop(d.base, o.seed, window)
	elapsed := time.Since(t0)
	if err := d.stop(); err != nil {
		return nil, err
	}
	t := tallyServe(ops, chk)
	lat := latencies(ops, opLatency)
	if !o.trace {
		rep.setTally(t)
		rep.set("setup_s", median(durations(setup)), "s")
		rep.set("ops_per_s", float64(len(ops))/elapsed.Seconds(), "1/s")
		rep.set("op_s_p50", median(lat), "s")
		rep.set("max_rss_mb", maxRSSMB(), "MB")
		if label, v, ok := tailPercentile(lat); ok {
			fmt.Printf("op_s_%s %.6g s over %d ops\n", label, v, len(lat))
		} else {
			fmt.Printf("op tail omitted: %d ops leave fewer than 10 beyond p90\n", len(lat))
		}
		return rep, nil
	}
	return rep, traceServe(o, chk, rep, t, median(latencies(ops, newLatency)), window)
}

// traceServe repeats the closed loop on a fresh daemon with telemetry
// installed and client-side spans, and reports the serve layers. The
// simulated counts come from the warm-up job alone, so they repeat.
func traceServe(o options, chk *checker, rep *report, t tally, untracedNew float64, window time.Duration) error {
	reg := telemetry.NewRegistry()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	d, err := startDaemon(o.dir)
	if err != nil {
		return err
	}
	warm := serveOp{apps: serveBaseApps}
	warm.run(d.base)
	var warmSnap, snap telemetry.Snapshot
	var ops []serveOp
	if warm.outcome.failed() {
		err = fmt.Errorf("traced warm-up job failed: %+v", warm.outcome)
	} else if err = getSnapshot(d.base, &warmSnap); err == nil {
		ops = closedLoop(d.base, o.seed, window)
		err = getSnapshot(d.base, &snap)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	tt := tallyServe(ops, chk)
	t.attempted += tt.attempted
	t.failed += tt.failed
	rep.setTally(t)

	// Client-side spans: each op is a root with submit, poll and result
	// children, laid end to end from the recorded durations.
	tr := newTracer()
	for _, op := range ops {
		root := tr.startOp("op")
		at := tr.spans[root].Start
		for _, part := range []struct {
			name string
			d    time.Duration
		}{{"server.submit", op.submit}, {"server.poll", op.poll}, {"server.result", op.fetch}} {
			tr.spans = append(tr.spans, span{Name: part.name, Op: tr.op, Parent: root, Start: at, End: at + part.d})
			at += part.d
		}
		tr.end(root)
		tr.spans[root].End = tr.spans[root].Start + op.latency
	}
	if err := tr.write(filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
		return err
	}
	fx, err := buildFixture(campaign.ShardSeed(serveRunSeed, 0), nil)
	if err != nil {
		return err
	}
	pt, err := probe(fx)
	if err != nil {
		return err
	}

	counter := func(s telemetry.Snapshot, name string) float64 { v, _ := s.Counter(name); return float64(v) }
	delta := func(name string) float64 { return counter(snap, name) - counter(warmSnap, name) }
	mean := func(name string) float64 {
		for _, h := range snap.Histograms {
			if h.Name == name && h.Count > 0 {
				return h.Sum / float64(h.Count) / 1e9
			}
		}
		return 0
	}
	lc := layerCounts{
		tuneCalls: int(delta("tuning/runs")),
		tuneIters: int(delta("tuning/iterations_total")),
		tuned:     int(delta("tuning/runs") - delta("tuning/convergence_failures")),
	}
	hits, misses := delta("crossbar/cache_hits"), delta("crossbar/cache_misses")
	setLayerMetrics(rep, layerMetrics{ops: float64(max(len(ops), 1)), lt: tr.layers(), lc: lc,
		cacheHit: hits / max(hits+misses, 1), probes: pt, trainSteps: float64(lc.tuneIters)})
	// setLayerMetrics zeroes the serve layers; fill them in.
	submit := func(cached bool) []float64 {
		return latencies(ops, func(op serveOp) (time.Duration, bool) { return op.submit, op.cached == cached })
	}
	rep.set("server.submit_new_s_p50", median(submit(false)), "s")
	rep.set("server.submit_cached_s_p50", median(submit(true)), "s")
	rep.set("server.job_run_s_mean", mean("server/job_ns"), "s")
	sh, sm := delta("server/cache_hits"), delta("server/cache_misses")
	rep.set("server.cache_hit_ratio", sh/max(sh+sm, 1), "ratio")
	rep.set("campaign.shard_s_mean", mean("campaign/shard_ns"), "s")
	rep.set("campaign.checkpoint_fsync_s_mean", mean("campaign/checkpoint_fsync_ns"), "s")
	setSimMetrics(rep, runSim{
		LifetimeApps:   int64((warm.sim.Cycles - warm.sim.Failed) * serveBaseApps),
		Cycles:         int64(counter(warmSnap, "lifetime/cycles_total")),
		Remaps:         int64(counter(warmSnap, "lifetime/remaps_total")),
		TuneIterations: int64(counter(warmSnap, "tuning/iterations_total")),
		DevicePulses:   int64(counter(warmSnap, "device/pulses_total")),
	})
	rep.set("trace.overhead_frac", median(latencies(ops, newLatency))/untracedNew-1, "frac")
	return nil
}

func getSnapshot(base string, s *telemetry.Snapshot) error {
	status, err := getJSON(base+"/metrics/json", s)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("metrics snapshot: status %d", status)
	}
	return err
}
