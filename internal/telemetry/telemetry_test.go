package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestValidName(t *testing.T) {
	good := []string{"server/cache_hits", "device/pulses_total", "a/b.c-d_e", "layer/sub/name"}
	for _, n := range good {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	bad := []string{"", "noslash", "/lead", "trail/", "Upper/case", "sp ace/x"}
	for _, n := range bad {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t/c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("t/c") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("t/g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t/h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1053.5 {
		t.Fatalf("sum = %g, want 1053.5", h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms[0]
	wantCounts := []int64{2, 1, 1} // <=1: {0.5, 1}; <=10: {2}; <=100: {50}
	for i, want := range wantCounts {
		if hs.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d", i, hs.Buckets[i].Count, want)
		}
	}
	if hs.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", hs.Overflow)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t/x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering t/x as a gauge after counter must panic")
		}
	}()
	r.Gauge("t/x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid instrument name must panic")
		}
	}()
	r.Counter("NoSlash")
}

// TestNilRegistryAndInstruments: the disabled path must be fully
// nil-safe — nil registry hands out nil instruments, and every method
// no-ops.
func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("a/b")
	g := r.Gauge("a/b")
	h := r.Histogram("a/b", NsBounds())
	tl := r.Timeline("a/b")
	if c != nil || g != nil || h != nil || tl != nil {
		t.Fatal("disabled registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tl.Append(map[string]float64{"x": 1})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || tl.Len() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Timelines) != 0 {
		t.Fatal("nil registry must snapshot empty")
	}
}

// TestDisabledFastPathZeroAllocs pins the nil-sink fast path:
// incrementing through a disabled registry's handle must not allocate,
// so instrumented hot loops stay free when no telemetry flag is set.
func TestDisabledFastPathZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("hot/pulses")
	g := r.Gauge("hot/stress")
	h := r.Histogram("hot/lat_ns", NsBounds())
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(0.5)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("disabled instrument ops allocate %v allocs/op, want 0", n)
	}
}

// TestEnabledCounterZeroAllocs: the enabled counter path must also be
// allocation-free (it is on the simulation hot path).
func TestEnabledCounterZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot/pulses")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("enabled Counter.Inc allocates %v allocs/op, want 0", n)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("t/conc")
			g := r.Gauge("t/gconc")
			h := r.Histogram("t/hconc", []float64{10, 100})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("t/conc").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("t/gconc").Value(); got != workers*per {
		t.Fatalf("gauge = %g, want %d", got, workers*per)
	}
	if got := r.Histogram("t/hconc", nil).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestTimeline(t *testing.T) {
	r := NewRegistry()
	tl := r.Timeline("life/timeline")
	tl.Append(map[string]float64{"cycle": 1, "acc": 0.9})
	tl.Append(map[string]float64{"cycle": 2, "acc": 0.8})
	if tl.Len() != 2 {
		t.Fatalf("timeline len = %d, want 2", tl.Len())
	}
	recs, ok := r.Snapshot().Timeline("life/timeline")
	if !ok || len(recs) != 2 || recs[1]["cycle"] != 2 {
		t.Fatalf("snapshot timeline wrong: %v %v", recs, ok)
	}
}

func TestSnapshotCanonicalAndRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("b/two").Add(2)
	r.Counter("a/one").Inc()
	r.Gauge("z/g").Set(3.25)
	r.Histogram("m/h_ns", []float64{1, 2}).Observe(1.5)
	r.Timeline("life/t").Append(map[string]float64{"x": 1})

	var buf1, buf2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("snapshot JSON must be canonical (identical bytes for identical state)")
	}
	if strings.Index(buf1.String(), "a/one") > strings.Index(buf1.String(), "b/two") {
		t.Fatal("counters must be sorted by name")
	}
	back, err := ReadSnapshot(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter("b/two"); !ok || v != 2 {
		t.Fatalf("round-trip lost b/two: %d %v", v, ok)
	}
}

// TestDeterministicFilter: wall-clock instruments (the _ns suffix) are
// excluded; everything else survives.
func TestDeterministicFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("a/pure").Inc()
	r.Histogram("a/lat_ns", NsBounds()).Observe(5)
	r.Gauge("a/busy").Set(1)
	d := r.Snapshot().Deterministic()
	if len(d.Histograms) != 0 {
		t.Fatalf("wall-clock histogram must be filtered, got %v", d.Histograms)
	}
	if len(d.Counters) != 1 || len(d.Gauges) != 1 {
		t.Fatalf("pure instruments must survive: %+v", d)
	}
}

// TestSnapshotIdenticalForIdenticalDrives: the registry half of the
// determinism contract — two registries driven by the same event
// sequence snapshot identically.
func TestSnapshotIdenticalForIdenticalDrives(t *testing.T) {
	drive := func() Snapshot {
		r := NewRegistry()
		for i := 0; i < 100; i++ {
			r.Counter("x/events").Inc()
			r.Histogram("x/sizes", []float64{10, 50}).Observe(float64(i))
			r.Timeline("x/t").Append(map[string]float64{"i": float64(i)})
		}
		return r.Snapshot()
	}
	if a, b := drive(), drive(); !reflect.DeepEqual(a, b) {
		t.Fatal("identical drives must snapshot identically")
	}
}

func TestGlobalInstallAndReset(t *testing.T) {
	if Global() != nil {
		t.Fatal("tests must start with telemetry disabled")
	}
	C("g/x").Inc() // disabled: no-op, no panic
	r := NewRegistry()
	SetGlobal(r)
	defer SetGlobal(nil)
	C("g/x").Inc()
	if got := r.Counter("g/x").Value(); got != 1 {
		t.Fatalf("global counter = %d, want 1", got)
	}
	if H("g/h_ns", NsBounds()) == nil || Global().Gauge("g/g") == nil || T("g/t") == nil {
		t.Fatal("global helpers must resolve instruments once installed")
	}
}
