package telemetry

import "sync/atomic"

// The global registry and tracer are the process-wide install points
// the simulation layers read their instruments from. Both default to
// nil (telemetry disabled): every lookup then returns a nil instrument
// whose methods no-op, so instrumented hot paths cost one branch.
//
// The CLI installs a registry/tracer before running experiments; tests
// install fresh ones per run (and reset to nil) to keep runs isolated.
var (
	globalReg    atomic.Pointer[Registry]
	globalTracer atomic.Pointer[Tracer]
)

// SetGlobal installs r as the process-wide registry (nil disables
// telemetry). Instrument handles resolved from a previous registry
// keep writing to that registry; install before constructing the
// objects you want instrumented.
func SetGlobal(r *Registry) {
	globalReg.Store(r)
}

// Global returns the installed registry — nil when telemetry is
// disabled, which every instrument lookup and method tolerates.
func Global() *Registry {
	return globalReg.Load()
}

// SetGlobalTracer installs t as the process-wide tracer (nil disables
// tracing).
func SetGlobalTracer(t *Tracer) {
	globalTracer.Store(t)
}

// GlobalTracer returns the installed tracer (nil when disabled).
func GlobalTracer() *Tracer {
	return globalTracer.Load()
}

// C resolves a counter from the global registry (nil when disabled).
func C(name string) *Counter { return Global().Counter(name) }

// H resolves a histogram from the global registry (nil when disabled).
func H(name string, bounds []float64) *Histogram { return Global().Histogram(name, bounds) }

// T resolves a timeline from the global registry (nil when disabled).
func T(name string) *Timeline { return Global().Timeline(name) }

// StartSpan opens a span on the global tracer (nil span when tracing
// is disabled).
func StartSpan(name string) *Span { return GlobalTracer().StartSpan(name) }

// Event emits an event on the global tracer (no-op when disabled).
// Callers building non-trivial attrs should guard with
// GlobalTracer() != nil to avoid the map allocation.
func Event(name string, attrs Attrs) { GlobalTracer().Event(name, attrs) }
