// Package bench is the programmatic benchmark harness: a registry of
// named micro-kernels covering the crossbar hot paths (cached readback,
// weight mapping and its LUT quantization, batched tuning pulses), raw
// matmul, the device pulse model, a fleet tick and the disabled
// telemetry sink, run through testing.Benchmark and emitted as a
// canonical JSON report (BENCH_<date>.json). CI re-runs the kernels and
// gates on a committed baseline with Compare: ns/op with a generous
// cross-machine tolerance (it catches order-of-magnitude regressions,
// such as a cache that silently stopped caching, not scheduler jitter)
// and allocs/op tightly (allocation counts are machine-independent).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/device"
	"memlife/internal/fleet"
	"memlife/internal/telemetry"
	"memlife/internal/tensor"
)

// Result is the measurement of one kernel, plus the kernel's hard
// allocation budget when it declares one. Budgets are part of the
// committed baseline: Compare enforces them on the CURRENT run with no
// slack — exceeding max_allocs_per_op or max_bytes_per_op fails the
// gate exactly like an ns/op regression. Nil means unbudgeted (the
// pointer keeps an absent JSON field distinct from an explicit 0).
type Result struct {
	Name           string  `json:"name"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	Iterations     int     `json:"iterations"`
	MaxAllocsPerOp *int64  `json:"max_allocs_per_op,omitempty"`
	MaxBytesPerOp  *int64  `json:"max_bytes_per_op,omitempty"`
}

// Equal compares two results by value (pointer budgets compare by
// pointee).
func (r Result) Equal(o Result) bool {
	eqPtr := func(a, b *int64) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || *a == *b
	}
	return r.Name == o.Name && r.NsPerOp == o.NsPerOp &&
		r.AllocsPerOp == o.AllocsPerOp && r.BytesPerOp == o.BytesPerOp &&
		r.Iterations == o.Iterations &&
		eqPtr(r.MaxAllocsPerOp, o.MaxAllocsPerOp) && eqPtr(r.MaxBytesPerOp, o.MaxBytesPerOp)
}

// Report is one harness run: environment, date, and per-kernel results
// sorted by kernel name (the JSON encoding is canonical, so reports
// diff cleanly).
type Report struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// Get returns the result for the named kernel.
func (r Report) Get(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// WriteJSON writes the report as canonical indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadReport parses a report written by WriteJSON. A report used as a
// baseline must gate something, so it rejects a document with no
// results, duplicate kernel names (Compare would check only the first)
// or anything but whitespace after the JSON object.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: decode report: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Report{}, fmt.Errorf("bench: decode report: trailing data after the JSON object")
	}
	if len(rep.Results) == 0 {
		return Report{}, fmt.Errorf("bench: report has no results")
	}
	seen := make(map[string]bool, len(rep.Results))
	for _, res := range rep.Results {
		if seen[res.Name] {
			return Report{}, fmt.Errorf("bench: duplicate kernel %q in report", res.Name)
		}
		seen[res.Name] = true
	}
	return rep, nil
}

// kernel is one registered micro-benchmark. setup builds the fixture
// outside the timed region; run is the b.N loop. maxAllocs/maxBytes,
// when non-nil, are the kernel's hard per-op budgets: they are stamped
// into the emitted Result, committed with the baseline, and enforced by
// Compare with zero slack.
type kernel struct {
	name      string
	run       func(b *testing.B)
	maxAllocs *int64
	maxBytes  *int64
}

// zeroAlloc is the budget of the steady-state kernels: 0 allocs/op and
// 0 bytes/op, enforced exactly.
var zeroAlloc int64 = 0

// byteBudgetNoise is the per-run byte total below which a bytes/op
// budget overage is attributed to in-process noise the kernel does not
// own (CPU-profile buffer flushes, runtime housekeeping) rather than a
// leak. See Compare.
const byteBudgetNoise = 64 << 10

// The shared fixture is one mapped crossbar (no faults, so
// reads are pure and draw no RNG) and its weight matrix. Sized so
// per-op cost is dominated by the kernel, not the harness.
const (
	benchRows  = 64
	benchCols  = 64
	benchBatch = 32
)

func newBenchCrossbar() (*crossbar.Crossbar, *tensor.Tensor, error) {
	cb, err := crossbar.New(benchRows, benchCols, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		return nil, nil, err
	}
	w := tensor.New(benchRows, benchCols)
	tensor.NewRNG(17).FillNormal(w, 0, 0.5)
	p := cb.Params()
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh)
	return cb, w, nil
}

// kernels returns the registry. Each call builds fresh fixtures so
// kernels cannot contaminate each other through device aging.
func kernels() ([]kernel, error) {
	cb, w, err := newBenchCrossbar()
	if err != nil {
		return nil, err
	}
	ks := []kernel{
		{name: "effweights/cached", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// Steady-state readback (MappedNetwork.Refresh): the SAME
			// mapped array read b.N times with no mutation in between,
			// served from the warm cache with zero allocations.
			dst := tensor.New(benchRows, benchCols)
			if err := cb.ReadWeightsInto(dst); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cb.ReadWeightsInto(dst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "matmul", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			a := tensor.New(benchBatch, benchRows)
			tensor.NewRNG(20).FillNormal(a, 0, 1)
			dst := tensor.New(benchBatch, benchCols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(dst, a, w)
			}
		}},
		{name: "telemetry/counter_disabled", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// The disabled-telemetry fast path: a nil registry hands out a
			// nil counter whose Inc is a single-branch no-op. The gate
			// pins this at 0 allocs/op so instrumenting hot loops stays
			// free when no -metrics-out/-trace-out/-debug-addr is set.
			var reg *telemetry.Registry
			c := reg.Counter("bench/disabled")
			h := reg.Histogram("bench/disabled_ns", telemetry.NsBounds())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Inc()
				h.Observe(float64(i))
			}
		}},
		{name: "fleet/tick", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// One event-clock tick of a small fleet under the busiest
			// balancer. The loop runs past the configured horizon —
			// Tick keeps serving beyond cfg.Ticks — so b.N is
			// unbounded. The gate pins 0 allocs/op: the event heap,
			// routing scratch, sketches and RNG are preallocated at
			// New (see fleet.TestTickSteadyStateZeroAlloc).
			cfg := fleet.Defaults(10, true)
			cfg.Balancer = fleet.BalLeastAged
			sim, err := fleet.New(cfg, device.Params32(), aging.DefaultModel(), 300, 42)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				sim.Tick() // warm past first-touch growth
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Tick()
			}
		}},
		{name: "mapweights", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// Its own array: repeated programming ages devices, and that
			// wear must not leak into the read kernels. The warm call
			// sizes the aged-bounds memo outside the timer, so the
			// steady-state remap is allocation-free.
			mcb, mw, err := newBenchCrossbar()
			if err != nil {
				b.Fatal(err)
			}
			p := mcb.Params()
			mcb.MapWeights(mw, p.RminFresh, p.RmaxFresh)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mcb.MapWeights(mw, p.RminFresh, p.RmaxFresh)
			}
		}},
		{name: "mapweights/lut", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// The software-side quantization pass of the range selection
			// (QuantizeWeightsInto): pure LUT arithmetic, no device state,
			// zero allocations into a caller-owned destination.
			dst := tensor.New(benchRows, benchCols)
			p := cb.Params()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb.QuantizeWeightsInto(dst, w, p.RminFresh, p.RmaxFresh)
			}
		}},
		{name: "model/pulse", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// The full stochastic pulse path through the model zoo:
			// stress accrual, the counter-based C2C draw, the diffusive
			// StepG (lognormal scaling + relaxation) and the window
			// clamp. Models are cached per Params value and the noise
			// stream is pure counter arithmetic, so dispatching device
			// physics through the Model interface must stay free of
			// per-pulse allocations.
			p := device.Params32()
			p.Model = device.ModelSpec{Kind: device.ModelDiffusive, D2D: 0.05, C2C: 0.02}
			d := device.New(p)
			d.SeedNoise(42)
			lo, hi := p.RminFresh, p.RmaxFresh
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Pulse(1-2*(i&1), lo, hi)
			}
		}},
		{name: "stepdevice/batch", maxAllocs: &zeroAlloc, maxBytes: &zeroAlloc, run: func(b *testing.B) {
			// Batched tuning pulses: one StepDevices call applying a
			// quarter of the array per op, patching the cache per cell.
			// Its own array (pulses age devices).
			scb, sw, err := newBenchCrossbar()
			if err != nil {
				b.Fatal(err)
			}
			steps := make([]crossbar.Step, 0, benchRows*benchCols/4)
			rng := tensor.NewRNG(21)
			for len(steps) < cap(steps) {
				dir := 1
				if rng.Float64() < 0.5 {
					dir = -1
				}
				steps = append(steps, crossbar.Step{I: rng.Intn(benchRows), J: rng.Intn(benchCols), Dir: dir})
			}
			p := scb.Params()
			scb.MapWeights(sw, p.RminFresh, p.RmaxFresh)
			sink := tensor.New(benchRows, benchCols)
			if err := scb.ReadWeightsInto(sink); err != nil { // warm the cache: StepDevices patches it
				b.Fatal(err)
			}
			scb.StepDevices(steps, 2) // warm the bounds memo
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scb.StepDevices(steps, 2)
			}
		}},
	}
	return ks, nil
}

// Names returns the registered kernel names, sorted.
func Names() []string {
	ks, err := kernels()
	if err != nil {
		return nil
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.name
	}
	sort.Strings(names)
	return names
}

// Run measures the named kernels (all of them when names is empty)
// through testing.Benchmark and returns the report. date is stamped
// into the report verbatim (the caller owns the clock).
func Run(date string, names []string) (Report, error) {
	ks, err := kernels()
	if err != nil {
		return Report{}, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	rep := Report{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	matched := 0
	for _, k := range ks {
		if len(want) > 0 && !want[k.name] {
			continue
		}
		matched++
		r := testing.Benchmark(k.run)
		if r.N == 0 {
			return Report{}, fmt.Errorf("bench: kernel %s failed (see benchmark log)", k.name)
		}
		rep.Results = append(rep.Results, Result{
			Name:           k.name,
			NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:    r.AllocsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
			Iterations:     r.N,
			MaxAllocsPerOp: k.maxAllocs,
			MaxBytesPerOp:  k.maxBytes,
		})
	}
	if len(want) > 0 && matched != len(want) {
		return Report{}, fmt.Errorf("bench: unknown kernel in %v (known: %v)", names, Names())
	}
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Name < rep.Results[j].Name })
	return rep, nil
}

// RunAll measures every registered kernel.
func RunAll(date string) (Report, error) { return Run(date, nil) }

// Compare gates cur against the committed baseline. ns/op may grow by
// at most a factor of (1+tol) — tol is deliberately generous because
// baselines are recorded on different hardware than CI; the gate exists
// to catch order-of-magnitude regressions (a cache that silently
// stopped caching), not scheduler noise. allocs/op is gated tightly
// (25% + 2 allocs of slack) because allocation counts do not depend on
// the machine. On top of that, a baseline kernel carrying a hard budget
// (max_allocs_per_op / max_bytes_per_op) is enforced with NO per-op
// slack: budgets are contracts, not measurements, and exceeding one
// fails the gate at any ns/op tolerance. The bytes budget alone is
// enforced above a small per-RUN noise floor (byteBudgetNoise): rare
// in-process allocations the kernel does not own — a CPU-profile
// buffer flush under -cpuprofile, runtime housekeeping — amortize to a
// bounded byte total per run and can surface as 1–2 bytes/op, while a
// genuine per-op leak scales with the iteration count (even a single
// 16-byte allocation per op totals megabytes). allocs/op needs no
// floor: testing.Benchmark truncates, so a handful of stray
// allocations over thousands of iterations reads 0. Kernels present
// only in cur are ignored (new kernels need no baseline); kernels
// missing from cur are an error.
func Compare(base, cur Report, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("bench: negative tolerance %g", tol)
	}
	var failures []string
	for _, b := range base.Results {
		c, ok := cur.Get(b.Name)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		if maxNs := b.NsPerOp * (1 + tol); c.NsPerOp > maxNs {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %gx",
				b.Name, c.NsPerOp, b.NsPerOp, 1+tol))
		}
		if maxAllocs := b.AllocsPerOp + b.AllocsPerOp/4 + 2; c.AllocsPerOp > maxAllocs {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d allocs/op (limit %d)",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, maxAllocs))
		}
		if b.MaxAllocsPerOp != nil && c.AllocsPerOp > *b.MaxAllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds the hard budget of %d",
				b.Name, c.AllocsPerOp, *b.MaxAllocsPerOp))
		}
		if b.MaxBytesPerOp != nil && c.BytesPerOp > *b.MaxBytesPerOp &&
			(c.BytesPerOp-*b.MaxBytesPerOp)*int64(c.Iterations) > byteBudgetNoise {
			failures = append(failures, fmt.Sprintf("%s: %d bytes/op exceeds the hard budget of %d",
				b.Name, c.BytesPerOp, *b.MaxBytesPerOp))
		}
	}
	if len(failures) > 0 {
		msg := "bench: regression against baseline:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
