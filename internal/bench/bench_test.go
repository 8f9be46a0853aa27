package bench

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func sampleReport() Report {
	return Report{
		Date: "2026-01-01", GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		Results: []Result{
			{Name: "effweights/cached", NsPerOp: 1000, AllocsPerOp: 2, BytesPerOp: 512, Iterations: 100000},
			{Name: "matmul", NsPerOp: 9000, AllocsPerOp: 4, BytesPerOp: 66000, Iterations: 10000},
			{Name: "stepdevice/batch", NsPerOp: 500, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 200000,
				MaxAllocsPerOp: &zeroAlloc, MaxBytesPerOp: &zeroAlloc},
		},
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != rep.Date || len(got.Results) != len(rep.Results) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for _, want := range rep.Results {
		g, ok := got.Get(want.Name)
		if !ok || !g.Equal(want) {
			t.Fatalf("result %s corrupted: got %+v, want %+v", want.Name, g, want)
		}
	}
	// An unbudgeted kernel must round-trip with nil budgets, not 0 —
	// absent and explicit-zero budgets are different contracts.
	g, _ := got.Get("effweights/cached")
	if g.MaxAllocsPerOp != nil || g.MaxBytesPerOp != nil {
		t.Fatalf("unbudgeted kernel decoded with budgets: %+v", g)
	}
	if gb, _ := got.Get("stepdevice/batch"); gb.MaxAllocsPerOp == nil || *gb.MaxAllocsPerOp != 0 {
		t.Fatalf("budgeted kernel lost its budget: %+v", gb)
	}
}

func TestReportJSONIsCanonical(t *testing.T) {
	rep := sampleReport()
	// Shuffle, encode, and require sorted-by-name output.
	rep.Results[0], rep.Results[1] = rep.Results[1], rep.Results[0]
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Index(s, "effweights/cached") > strings.Index(s, "matmul") {
		t.Fatalf("results must encode sorted by name:\n%s", s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Fatal("canonical report must end with a newline")
	}
}

// TestReadReportRejectsEmptyBaselines pins the baseline contract: a
// report that would make Compare pass by checking nothing is an error.
func TestReadReportRejectsEmptyBaselines(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	dup := sampleReport()
	dup.Results = append(dup.Results, dup.Results[0])
	buf.Reset()
	if err := dup.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"empty object":     "{}",
		"null results":     `{"results":null}`,
		"empty results":    `{"date":"d","results":[]}`,
		"duplicate kernel": buf.String(),
		"trailing garbage": valid + "x",
		"second object":    valid + "{}",
		"not json":         "results",
		"empty input":      "",
	} {
		if _, err := ReadReport(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ReadReport accepted %q", name, doc)
		}
	}
	if _, err := ReadReport(strings.NewReader(valid + "\n\t ")); err != nil {
		t.Fatalf("trailing whitespace must be accepted: %v", err)
	}
}

// FuzzReadReport feeds arbitrary bytes to ReadReport: it returns an
// error or a report that gates at least one uniquely named kernel, and
// never panics.
func FuzzReadReport(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("{}"))
	f.Add([]byte(`{"results":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(rep.Results) == 0 {
			t.Fatal("accepted a report with no results")
		}
		seen := map[string]bool{}
		for _, r := range rep.Results {
			if seen[r.Name] {
				t.Fatalf("accepted duplicate kernel %q", r.Name)
			}
			seen[r.Name] = true
		}
	})
}

func TestCompareGates(t *testing.T) {
	base := sampleReport()

	ok := sampleReport() // identical: passes at any tolerance
	if err := Compare(base, ok, 0); err != nil {
		t.Fatalf("identical report must pass: %v", err)
	}

	slow := sampleReport()
	slow.Results[0].NsPerOp = base.Results[0].NsPerOp * 10
	if err := Compare(base, slow, 4); err == nil {
		t.Fatal("10x ns/op regression must fail a 5x gate")
	} else if !strings.Contains(err.Error(), "effweights/cached") {
		t.Fatalf("failure must name the kernel: %v", err)
	}
	if err := Compare(base, slow, 20); err != nil {
		t.Fatalf("10x must pass a 21x gate: %v", err)
	}

	leaky := sampleReport()
	leaky.Results[0].AllocsPerOp = 40
	if err := Compare(base, leaky, 4); err == nil {
		t.Fatal("alloc regression must fail even within the ns tolerance")
	}

	missing := sampleReport()
	missing.Results = missing.Results[:1]
	if err := Compare(base, missing, 4); err == nil {
		t.Fatal("a kernel missing from the current run must fail the gate")
	}

	extra := sampleReport()
	extra.Results = append(extra.Results, Result{Name: "new/kernel", NsPerOp: 1})
	if err := Compare(base, extra, 4); err != nil {
		t.Fatalf("kernels without a baseline must be ignored: %v", err)
	}

	// Hard budgets have no slack: a single alloc (or byte) over the
	// committed budget fails the gate at any tolerance, even though the
	// 25%+2 relative alloc gate alone would let it pass.
	overBudget := sampleReport()
	overBudget.Results[2].AllocsPerOp = 1
	if err := Compare(base, overBudget, 1000); err == nil {
		t.Fatal("1 alloc/op over a 0 budget must fail the gate")
	} else if !strings.Contains(err.Error(), "hard budget") {
		t.Fatalf("failure must name the budget: %v", err)
	}
	overBytes := sampleReport()
	overBytes.Results[2].BytesPerOp = 16
	if err := Compare(base, overBytes, 1000); err == nil {
		t.Fatal("16 bytes/op over a 0-byte budget must fail the gate")
	}

	// ...except below the per-run noise floor: 1 byte/op over 5000
	// iterations is a 5 KiB run total — profiler/runtime noise, not a
	// leak — and must pass even though the per-op budget is exceeded.
	noisy := sampleReport()
	noisy.Results[2].BytesPerOp = 1
	noisy.Results[2].Iterations = 5000
	if err := Compare(base, noisy, 1000); err != nil {
		t.Fatalf("sub-noise-floor byte overage must pass: %v", err)
	}

	if err := Compare(base, ok, -1); err == nil {
		t.Fatal("negative tolerance must be rejected")
	}
}

func TestNamesCoverTheContract(t *testing.T) {
	want := []string{
		"effweights/cached", "fleet/tick",
		"mapweights", "mapweights/lut", "matmul", "model/pulse",
		"stepdevice/batch", "telemetry/counter_disabled",
	}
	got := Names()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("kernel registry = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel registry = %v, want %v", got, want)
		}
	}
}

func TestRunRejectsUnknownKernel(t *testing.T) {
	if _, err := Run("d", []string{"no/such/kernel"}); err == nil {
		t.Fatal("unknown kernel name must be rejected")
	}
}

// TestDisabledTelemetryZeroAlloc is the regression gate for the
// nil-sink fast path: incrementing a counter and observing a histogram
// from a disabled (nil) registry must cost 0 allocs/op and 0 bytes/op,
// so leaving instrumentation in hot simulation loops is free when no
// telemetry flag is set. Skipped in -short runs like the other
// measurement tests (testing.Benchmark spends ~1s per kernel).
func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement in -short mode")
	}
	rep, err := Run("test", []string{"telemetry/counter_disabled"})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rep.Get("telemetry/counter_disabled")
	if !ok {
		t.Fatal("telemetry kernel missing from report")
	}
	if r.AllocsPerOp != 0 || r.BytesPerOp != 0 {
		t.Fatalf("disabled telemetry path allocates: %d allocs/op, %d bytes/op (want 0/0)",
			r.AllocsPerOp, r.BytesPerOp)
	}
}

// TestHotKernelBudgets measures every budgeted hot kernel and enforces
// its own stamped budget via Compare(rep, rep, ...): the steady-state
// readback, mapping, quantization, and batched stepping kernels must
// measure 0 allocs/op and 0 bytes/op on this machine.
// Skipped in -short runs (testing.Benchmark spends ~1s per kernel).
func TestHotKernelBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement in -short mode")
	}
	names := []string{"effweights/cached", "mapweights", "mapweights/lut", "stepdevice/batch"}
	rep, err := Run("test", names)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		r, ok := rep.Get(n)
		if !ok {
			t.Fatalf("kernel %s missing from report", n)
		}
		if r.MaxAllocsPerOp == nil || r.MaxBytesPerOp == nil {
			t.Fatalf("kernel %s must carry a hard budget", n)
		}
	}
	if err := Compare(rep, rep, 1); err != nil {
		t.Fatalf("hot kernels exceed their own budgets: %v", err)
	}
}
