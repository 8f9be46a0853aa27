// Package telemetry is the observability layer of the simulation
// stack: a zero-external-dependency, concurrency-safe metrics registry
// (counters, gauges, fixed-bucket histograms, timelines) plus a
// lightweight span/event tracer that emits structured JSONL.
//
// Design contract (see DESIGN.md "Telemetry"):
//
//   - Deterministic by construction. Instruments never draw random
//     numbers and never feed back into simulation state, so enabling
//     telemetry cannot change simulation results. Instruments that
//     record wall-clock time (latency histograms, span durations) are
//     named with an "_ns" suffix; everything else is a pure function of
//     the simulated events and is bit-identical across repeated runs —
//     Snapshot.Deterministic filters to exactly that subset.
//
//   - Near-zero cost when disabled. A nil *Registry hands out nil
//     instrument handles, and every instrument method is a nil-receiver
//     no-op: the disabled hot path is one predictable branch, zero
//     allocations (asserted by TestDisabledFastPathZeroAllocs).
//
//   - Names are "layer/name" paths: lowercase [a-z0-9_/.-], at least
//     one '/', e.g. "device/pulses_total". Registering the same name
//     twice returns the same instrument; reusing a name across
//     instrument kinds panics (a programmer error worth failing loud).
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ValidName reports whether name follows the layer/name convention.
func ValidName(name string) bool {
	slash := false
	if len(name) == 0 || name[0] == '/' || name[len(name)-1] == '/' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '/':
			slash = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return slash
}

// Counter is a monotonically increasing integer. The nil counter (from
// a disabled registry) accepts every method as a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move both ways (a level, a rate, an
// accumulated physical quantity such as stress).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta atomically (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= bounds[i]; one implicit overflow bucket catches the
// rest. Sum and Count accumulate exactly.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on the nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBounds returns n geometric bucket bounds start, start*factor, ...
// — the standard latency-histogram shape.
func ExpBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid ExpBounds(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// NsBounds are the default duration buckets (nanoseconds): 1us .. ~17s
// in x4 steps. Instruments using them must carry the "_ns" suffix.
func NsBounds() []float64 { return ExpBounds(1e3, 4, 13) }

// maxTimelineRecords bounds each timeline's memory; appends past the
// cap are counted, not stored (no silent truncation: Snapshot reports
// Dropped).
const maxTimelineRecords = 1 << 16

// Timeline is an append-only sequence of structured records — the
// instrument behind per-cycle lifetime trajectories (the data of
// Fig. 4/8): each record is a flat field->value map, kept in append
// order.
type Timeline struct {
	mu      sync.Mutex
	records []map[string]float64
	dropped int64
}

// Append adds one record. The map is stored as-is; callers must not
// mutate it afterwards.
func (t *Timeline) Append(rec map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.records) >= maxTimelineRecords {
		t.dropped++
		return
	}
	t.records = append(t.records, rec)
}

// Len returns the number of stored records.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. A nil *Registry is the disabled registry: every lookup
// returns a nil instrument whose methods no-op.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	timelines map[string]*Timeline
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		timelines: map[string]*Timeline{},
	}
}

func (r *Registry) checkName(name, kind string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: invalid instrument name %q (want layer/name, lowercase)", name))
	}
	for k, taken := range map[string]bool{
		"counter":   r.counters[name] != nil,
		"gauge":     r.gauges[name] != nil,
		"histogram": r.hists[name] != nil,
		"timeline":  r.timelines[name] != nil,
	} {
		if taken && k != kind {
			panic(fmt.Sprintf("telemetry: %q already registered as a %s, requested as a %s", name, k, kind))
		}
	}
}

// Counter returns (registering on first use) the named counter; nil on
// the disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkName(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (registering on first use) the named gauge; nil on the
// disabled registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkName(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (registering on first use) the named histogram.
// The first caller's bounds win; later calls return the existing
// instrument whatever bounds they pass. Nil on the disabled registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkName(name, "histogram")
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds must increase strictly", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Timeline returns (registering on first use) the named timeline; nil
// on the disabled registry.
func (r *Registry) Timeline(name string) *Timeline {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timelines[name]; ok {
		return t
	}
	r.checkName(name, "timeline")
	t := &Timeline{}
	r.timelines[name] = t
	return t
}
