package crossbar

import (
	"testing"

	"memlife/internal/telemetry"
	"memlife/internal/tensor"
)

// withRegistry installs a fresh global registry for the test and
// removes it afterwards.
func withRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	r := telemetry.NewRegistry()
	telemetry.SetGlobal(r)
	t.Cleanup(func() { telemetry.SetGlobal(nil) })
	return r
}

// testWeights returns a deterministic [rows, cols] weight matrix.
func testWeights(rows, cols int, seed int64) *tensor.Tensor {
	w := tensor.New(rows, cols)
	rng := tensor.NewRNG(seed)
	for i := range w.Data() {
		w.Data()[i] = rng.Normal(0, 0.5)
	}
	return w
}

// TestTelemetryPulseCounter: programming pulses reach the process-wide
// device/pulses_total counter.
func TestTelemetryPulseCounter(t *testing.T) {
	reg := withRegistry(t)
	cb := newTestCrossbar(t, 6, 5)
	w := testWeights(6, 5, 3)
	cb.MapWeights(w, cb.params.RminFresh, cb.params.RmaxFresh, false)
	if got, ok := reg.Snapshot().Counter("device/pulses_total"); !ok || got <= 0 {
		t.Fatalf("pulses_total = %d (present %v), want > 0 (mapping programs devices)", got, ok)
	}
}

func TestTelemetryUsableLevelGauges(t *testing.T) {
	reg := withRegistry(t)
	cb := newTestCrossbar(t, 4, 4)
	w := testWeights(4, 4, 7)
	cb.MapWeights(w, cb.params.RminFresh, cb.params.RmaxFresh, false)

	var mean, min float64
	for _, g := range reg.Snapshot().Gauges {
		switch g.Name {
		case "device/usable_levels_mean":
			mean = g.Value
		case "device/usable_levels_min":
			min = g.Value
		}
	}
	// The gauges capture the windows the mapping clamped against, i.e.
	// the state at mapping entry; the programming pulses themselves then
	// add stress, so a post-map recount can only be equal or lower.
	postMin, postMean := cb.UsableLevelStats()
	if mean <= 0 || min <= 0 || min > mean {
		t.Fatalf("usable gauges implausible: mean %g, min %g", mean, min)
	}
	if postMean > mean || float64(postMin) > min {
		t.Fatalf("post-map usable levels (mean %g, min %d) exceed at-map gauges (mean %g, min %g)",
			postMean, postMin, mean, min)
	}
}

// TestTelemetryDoesNotPerturbResults drives two identical crossbars —
// one with telemetry installed, one without — through map, drift, tune
// pulses and reads, and requires bit-identical outputs: instruments
// observe the simulation, never steer it.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	drive := func() []float64 {
		cb := newTestCrossbar(t, 6, 5)
		w := testWeights(6, 5, 11)
		cb.MapWeights(w, cb.params.RminFresh, cb.params.RmaxFresh, false)
		rng := tensor.NewRNG(42)
		cb.Drift(0.02, rng)
		cb.StepDevices([]Step{{I: 1, J: 2, Dir: +1}, {I: 3, J: 4, Dir: -1}}, 0)
		return mustEff(t, cb).Data()
	}

	telemetry.SetGlobal(nil)
	plain := drive()
	telemetry.SetGlobal(telemetry.NewRegistry())
	defer telemetry.SetGlobal(nil)
	instrumented := drive()

	if len(plain) != len(instrumented) {
		t.Fatalf("output sizes differ: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("output %d differs with telemetry on: %g vs %g", i, plain[i], instrumented[i])
		}
	}
}
