package crossbar

import (
	"errors"
	"math"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/tensor"
)

func newDiff(t *testing.T, rows, cols int) *DifferentialCrossbar {
	t.Helper()
	d, err := NewDifferential(rows, cols, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDifferentialRoundTrip(t *testing.T) {
	d := newDiff(t, 4, 3)
	rng := tensor.NewRNG(1)
	w := tensor.New(4, 3)
	rng.FillNormal(w, 0, 0.5)
	stats := d.MapWeights(w)
	if stats.Clipped != 0 {
		t.Fatal("fresh differential mapping must not clip")
	}
	eff := mustDiffEff(t, d)
	// Quantization error bound: one conductance gap at the dense end,
	// converted to weight units via the scale.
	p := device.Params32()
	gGapMax := 1/p.LevelResistance(0) - 1/p.LevelResistance(1)
	errMax := gGapMax / (p.GmaxFresh() - p.GminFresh()) * w.AbsMax()
	for i, v := range w.Data() {
		if math.Abs(eff.Data()[i]-v) > errMax {
			t.Fatalf("weight %d error %g exceeds quantization bound %g", i, math.Abs(eff.Data()[i]-v), errMax)
		}
	}
}

func TestDifferentialSignSplit(t *testing.T) {
	d := newDiff(t, 2, 1)
	w := tensor.FromSlice([]float64{0.8, -0.8}, 2, 1)
	d.MapWeights(w)
	p := device.Params32()
	// Positive weight: Pos device high conductance, Neg at gMin.
	if d.Pos.Device(0, 0).Conductance() <= d.Neg.Device(0, 0).Conductance() {
		t.Fatal("positive weight must live on the Pos device")
	}
	if math.Abs(d.Neg.Device(0, 0).Conductance()-p.GminFresh()) > 1e-9 {
		t.Fatal("positive weight's Neg device must rest at gMin")
	}
	// Negative weight: mirrored.
	if d.Neg.Device(1, 0).Conductance() <= d.Pos.Device(1, 0).Conductance() {
		t.Fatal("negative weight must live on the Neg device")
	}
}

func TestDifferentialZeroWeightsRestAtGmin(t *testing.T) {
	d := newDiff(t, 3, 3)
	w := tensor.New(3, 3) // all zero
	d.MapWeights(w)
	if rel := d.MeanRelConductance(); rel > 1e-9 {
		t.Fatalf("zero weights must leave all devices at gMin, got rel conductance %g", rel)
	}
	eff := mustDiffEff(t, d)
	for _, v := range eff.Data() {
		if v != 0 {
			t.Fatalf("zero weights must read back zero, got %v", eff.Data())
		}
	}
}

func TestDifferentialDrawsLessCurrentThanSingle(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := tensor.New(8, 8)
	rng.FillNormal(w, 0, 0.3)

	diff := newDiff(t, 8, 8)
	diff.MapWeights(w)

	single := newTestCrossbar(t, 8, 8)
	p := single.Params()
	single.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	gMin, gMax := p.GminFresh(), p.GmaxFresh()
	singleRel, n := 0.0, 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			singleRel += (single.Device(i, j).Conductance() - gMin) / (gMax - gMin)
			n++
		}
	}
	singleRel /= float64(n)

	if diff.MeanRelConductance() >= singleRel {
		t.Fatalf("differential mapping must sit at lower conductance: %.3f vs single %.3f",
			diff.MeanRelConductance(), singleRel)
	}
}

func TestDifferentialStressAccounting(t *testing.T) {
	d := newDiff(t, 4, 4)
	rng := tensor.NewRNG(5)
	w := tensor.New(4, 4)
	rng.FillNormal(w, 0, 0.5)
	stats := d.MapWeights(w)
	if stats.Pulses == 0 {
		t.Fatal("mapping must pulse devices")
	}
	if int64(stats.Pulses) != d.TotalPulses() {
		t.Fatalf("pulse accounting: %d vs %d", stats.Pulses, d.TotalPulses())
	}
	if math.Abs(stats.Stress-d.TotalStress()) > 1e-9 {
		t.Fatalf("stress accounting: %g vs %g", stats.Stress, d.TotalStress())
	}
	d.Pos.Drift(0.05, rng)
	d.Neg.Drift(0.05, rng)
	eff := mustDiffEff(t, d)
	for _, v := range eff.Data() {
		if math.IsNaN(v) {
			t.Fatal("drifted differential weights must stay finite")
		}
	}
}

func TestDifferentialBeforeMapReturnsError(t *testing.T) {
	d := newDiff(t, 2, 2)
	if _, err := d.EffectiveWeights(); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("EffectiveWeights before mapping: err = %v, want ErrNotMapped", err)
	}
}
