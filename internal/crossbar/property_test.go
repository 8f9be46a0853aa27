package crossbar

import (
	"math"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/tensor"
)

// Property: quantizing twice with the same range is idempotent.
func TestQuantizeWeightsIdempotent(t *testing.T) {
	cb, err := New(8, 8, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := cb.Params()
	rng := tensor.NewRNG(13)
	w := tensor.New(8, 8)
	rng.FillNormal(w, 0, 1)
	q1, q2 := tensor.New(w.Shape()...), tensor.New(w.Shape()...)
	cb.QuantizeWeightsInto(q1, w, p.RminFresh, p.RmaxFresh)
	cb.QuantizeWeightsInto(q2, q1, p.RminFresh, p.RmaxFresh)
	for i := range q1.Data() {
		if math.Abs(q1.Data()[i]-q2.Data()[i]) > 1e-9 {
			t.Fatalf("quantization not idempotent at %d: %g vs %g", i, q1.Data()[i], q2.Data()[i])
		}
	}
}

// Property: tuning pulses move the effective weight monotonically in
// the commanded direction until pinned.
func TestStepDeviceMonotone(t *testing.T) {
	cb, err := New(3, 1, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := cb.Params()
	w := tensor.FromSlice([]float64{-1, 0, 1}, 3, 1)
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	prev := cb.Device(1, 0).Conductance()
	for k := 0; k < 10; k++ {
		cb.StepDevice(1, 0, +1)
		g := cb.Device(1, 0).Conductance()
		if g < prev-1e-15 {
			t.Fatalf("positive pulses must not decrease conductance: %g -> %g", prev, g)
		}
		prev = g
	}
	for k := 0; k < 10; k++ {
		cb.StepDevice(1, 0, -1)
		g := cb.Device(1, 0).Conductance()
		if g > prev+1e-15 {
			t.Fatalf("negative pulses must not increase conductance: %g -> %g", prev, g)
		}
		prev = g
	}
}

// Failure injection: a crossbar whose devices are all worn out must
// still map (pinned) and read back finite effective weights.
func TestMapOnDeadArray(t *testing.T) {
	cb, err := New(4, 4, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := cb.Params()
	// Exhaust every device.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := cb.Device(i, j)
			for k := 0; k < 200; k++ {
				lo, hi := cb.AgedBounds(i, j)
				d.Program(p.RminFresh, lo, hi)
				lo, hi = cb.AgedBounds(i, j)
				d.Program(p.RmaxFresh, lo, hi)
			}
		}
	}
	minLvl, _ := cb.UsableLevelStats()
	if minLvl > 1 {
		t.Skipf("array not sufficiently dead (min usable levels %d)", minLvl)
	}
	rng := tensor.NewRNG(17)
	w := tensor.New(4, 4)
	rng.FillNormal(w, 0, 1)
	stats := cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	if stats.Clipped == 0 {
		t.Fatal("mapping a dead array must clip")
	}
	eff := mustEff(t, cb)
	for _, v := range eff.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("effective weights must stay finite on a dead array")
		}
	}
}

// Property: trace stride 1 traces every device.
func TestTraceStrideOne(t *testing.T) {
	cb, err := New(5, 7, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb.SetTraceStride(1)
	if got := len(cb.TracedIndices()); got != 35 {
		t.Fatalf("stride-1 tracing covers %d devices, want 35", got)
	}
	cb.SetTraceStride(5)
	for _, ij := range cb.TracedIndices() {
		if ij[0]%5 != 2 || ij[1]%5 != 2 {
			t.Fatalf("stride-5 traced device %v is not a block center", ij)
		}
	}
}

func TestSetTraceStrideInvalidPanics(t *testing.T) {
	cb, err := New(2, 2, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stride 0")
		}
	}()
	cb.SetTraceStride(0)
}

func TestRandomizeAgingSpreadsFactors(t *testing.T) {
	cb, err := New(10, 10, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb.RandomizeAging(0.4, tensor.NewRNG(3))
	distinct := map[float64]bool{}
	for i := 0; i < 10; i++ {
		f := cb.Device(i, i).AgingFactor()
		if f <= 0 {
			t.Fatal("aging factors must be positive")
		}
		distinct[f] = true
	}
	if len(distinct) < 5 {
		t.Fatal("variability must spread aging factors")
	}
}
