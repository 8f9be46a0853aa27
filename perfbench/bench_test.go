package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
	}{
		{0, ""}, {50, ""}, {99, ""}, // fewer than 10 samples beyond p90: omitted
		{100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"},
		{10000, "p99.9"},
	} {
		label, v, ok := tailPercentile(seq(tc.n))
		if ok != (tc.label != "") || label != tc.label {
			t.Errorf("n=%d: got %q ok=%v, want %q", tc.n, label, ok, tc.label)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %s=%g leaves %d samples beyond it, want >= 10", tc.n, label, v, beyond)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g, want 0", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); got != 9 {
		t.Errorf("quantile = %g, want 9", got)
	}
}

func TestOutcomeFailed(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    outcome
		want bool
	}{
		{"lifetime op ok", outcome{}, false},
		{"accepted and done", outcome{status: http.StatusAccepted, jobState: "done"}, false},
		{"cached", outcome{status: http.StatusOK, jobState: "done"}, false},
		{"error", outcome{err: errors.New("boom")}, true},
		{"429", outcome{status: http.StatusTooManyRequests}, true},
		{"400", outcome{status: http.StatusBadRequest}, true},
		{"failed job", outcome{status: http.StatusAccepted, jobState: "failed"}, true},
		{"mismatch", outcome{mismatch: true}, true},
	} {
		if got := tc.o.failed(); got != tc.want {
			t.Errorf("%s: failed() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// fakeDaemon answers the serve API the way the mode says: "ok" runs a
// two-cycle job, "429" refuses submissions, "failjob" fails the job,
// "badsim" reports a lifetime that does not match the spec.
func fakeDaemon(t *testing.T, mode string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if mode == "429" {
			http.Error(w, `{"error":"full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		state := "done"
		if mode == "failjob" {
			state = "failed"
		}
		fmt.Fprintf(w, `{"id":"j1","state":%q}`, state)
	})
	mux.HandleFunc("GET /v1/results/{id}", func(w http.ResponseWriter, r *http.Request) {
		apps := 2 * serveBaseApps
		if mode == "badsim" {
			apps++
		}
		fmt.Fprintf(w, `{"result":{"aggregates":[{"metric":"cycles","mean":2},{"metric":"failed","mean":0},`+
			`{"metric":"lifetime_apps","mean":%d},{"metric":"final_acc","mean":0.5},{"metric":"target_acc","mean":0.4}]}}`, apps)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestServeOpFailedAccounting(t *testing.T) {
	for _, tc := range []struct {
		mode   string
		failed bool
	}{{"ok", false}, {"429", true}, {"failjob", true}, {"badsim", true}} {
		srv := fakeDaemon(t, tc.mode)
		op := serveOp{apps: serveBaseApps}
		op.run(srv.URL)
		var tl tally
		tl.add(op.outcome)
		if tl.attempted != 1 || (tl.failed == 1) != tc.failed {
			t.Errorf("%s: tally %+v (outcome %+v), want failed=%v", tc.mode, tl, op.outcome, tc.failed)
		}
	}
}

func TestServeMismatchAgainstReferenceCounts(t *testing.T) {
	o := options{workload: "serve-jobs", seed: 5, ref: &reference{Serve: &serveSim{Cycles: 2, FinalAcc: 0.5, TargetAcc: 0.4}}}
	chk := newChecker(o)
	good := serveOp{sim: serveSim{Cycles: 2, FinalAcc: 0.5, TargetAcc: 0.4}}
	bad := serveOp{sim: serveSim{Cycles: 2, FinalAcc: 0.25, TargetAcc: 0.4}}
	tl := tallyServe([]serveOp{good, bad, good}, chk)
	if tl.attempted != 3 || tl.failed != 1 {
		t.Errorf("tally %+v, want 3 attempted, 1 failed", tl)
	}
}

func TestClientOpsDeterministic(t *testing.T) {
	a, b := clientOps(7, 1, 200), clientOps(7, 1, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op sequences")
	}
	if reflect.DeepEqual(a, clientOps(8, 1, 200)) {
		t.Error("different seeds gave the same op sequence")
	}
	cached := 0
	seen := map[int64]bool{}
	for _, op := range a {
		if op.cached {
			cached++
			if !seen[op.apps] {
				t.Fatalf("cached op re-submits apps=%d, which the client never submitted", op.apps)
			}
			continue
		}
		if seen[op.apps] {
			t.Fatalf("new op repeats apps=%d", op.apps)
		}
		seen[op.apps] = true
	}
	if cached != 200/serveCachedEvery && cached != 200/serveCachedEvery-1 {
		t.Errorf("%d of 200 ops cached, want one in %d", cached, serveCachedEvery)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{}
	ms := time.Millisecond
	tr.spans = []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "lifetime.run", Parent: 0, Start: 5 * ms, End: 95 * ms},
		{Name: "mapping.map", Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "tuning.tune", Parent: 1, Start: 40 * ms, End: 90 * ms},
	}
	lt := tr.layers()
	if lt.ops != 100*ms || lt.uncovered != 10*ms {
		t.Errorf("ops %v uncovered %v, want 100ms and 10ms", lt.ops, lt.uncovered)
	}
	if lt.self["lifetime"] != 10*ms || lt.self["mapping"] != 30*ms || lt.self["tuning"] != 50*ms {
		t.Errorf("self times %v", lt.self)
	}
	var sum time.Duration
	for _, d := range lt.self {
		sum += d
	}
	if sum+lt.uncovered != lt.ops {
		t.Errorf("self times %v + uncovered %v do not add up to %v", sum, lt.uncovered, lt.ops)
	}
}

// TestSameSeedSameSim runs one remap-lenet op twice on the same fixture
// and once through the traced replica: the simulated outputs must be
// identical, and the replica must reproduce lifetime.RunCtx exactly.
func TestSameSeedSameSim(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fixture")
	}
	f, err := buildFixture(panelSeeds[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	const w = "remap-lenet"
	a, err := runOp(f, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOp(f, w)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(a, b) || !sameSim(simsOf(a, nil), simsOf(b, nil)) {
		t.Fatalf("same inputs, different outputs:\n%+v\n%+v", simsOf(a, nil), simsOf(b, nil))
	}
	var lc layerCounts
	c, pulses, err := runOpTraced(f, w, newTracer(), &lc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(a, c) {
		t.Fatalf("traced replica diverged from lifetime.RunCtx:\n%+v\n%+v", a, c)
	}
	if pulses[0] <= 0 || lc.mapCalls < 1 || lc.tuneCalls < 1 {
		t.Errorf("replica counted pulses %v, %+v", pulses, lc)
	}
	if fixtureSeed(3, 0) != fixtureSeed(3, 0) || fixtureSeed(3, 0) == fixtureSeed(3, 1) || fixtureSeed(3, 0) <= 0 {
		t.Error("fixtureSeed is not a deterministic positive per-index derivation")
	}
}

// TestTracedMetricsMatchBenchmark checks that a traced run reports
// exactly the per-layer metrics BENCHMARK.json declares.
func TestTracedMetricsMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found")
	}
	var bm struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	setLayerMetrics(rep, layerMetrics{ops: 1})
	setSimMetrics(rep, runSim{})
	rep.set("trace.overhead_frac", 0, "frac")
	var got, want []string
	for n, m := range rep.Metrics {
		got = append(got, n+" "+m.Unit)
	}
	for _, m := range bm.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced metrics\n%v\nBENCHMARK.json per_layer\n%v", got, want)
	}
}
