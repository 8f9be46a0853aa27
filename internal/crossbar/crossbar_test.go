package crossbar

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/tensor"
)

func newTestCrossbar(t *testing.T, rows, cols int) *Crossbar {
	t.Helper()
	cb, err := New(rows, cols, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

func TestNewValidation(t *testing.T) {
	p := device.Params32()
	m := aging.DefaultModel()
	if _, err := New(0, 4, p, m, 300, 0); err == nil {
		t.Fatal("zero rows must be rejected")
	}
	if _, err := New(4, 4, device.Params{}, m, 300, 0); err == nil {
		t.Fatal("invalid device params must be rejected")
	}
	if _, err := New(4, 4, p, aging.Model{}, 300, 0); err == nil {
		t.Fatal("invalid aging model must be rejected")
	}
	if _, err := New(4, 4, p, m, -1, 0); err == nil {
		t.Fatal("negative temperature must be rejected")
	}
}

func TestTargetResistanceEndpoints(t *testing.T) {
	// eq. (4): wMin -> gMin (rHi), wMax -> gMax (rLo).
	rLo, rHi := 1e4, 1e5
	if got := TargetResistance(-1, -1, 1, rLo, rHi); math.Abs(got-rHi) > 1e-9 {
		t.Fatalf("wMin target = %g, want rHi %g", got, rHi)
	}
	if got := TargetResistance(1, -1, 1, rLo, rHi); math.Abs(got-rLo) > 1e-9 {
		t.Fatalf("wMax target = %g, want rLo %g", got, rLo)
	}
	// Midpoint weight maps to mid conductance, NOT mid resistance.
	mid := TargetResistance(0, -1, 1, rLo, rHi)
	gMid := (1/rLo + 1/rHi) / 2
	if math.Abs(1/mid-gMid) > 1e-12 {
		t.Fatalf("mid weight conductance = %g, want %g", 1/mid, gMid)
	}
}

func TestTargetResistanceDegenerateRange(t *testing.T) {
	if got := TargetResistance(0.5, 0.5, 0.5, 1e4, 1e5); got != 1e5 {
		t.Fatalf("degenerate weight range must map to gMin (rHi), got %g", got)
	}
}

// Property: EffectiveWeight inverts TargetResistance exactly over the
// mapping range.
func TestEffectiveWeightInvertsMapping(t *testing.T) {
	f := func(raw float64) bool {
		w := math.Mod(math.Abs(raw), 2) - 1 // [-1, 1)
		r := TargetResistance(w, -1, 1, 1e4, 1e5)
		back := EffectiveWeight(r, -1, 1, 1e4, 1e5)
		return math.Abs(back-w) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMapWeightsQuantizesOntoGrid(t *testing.T) {
	cb := newTestCrossbar(t, 4, 4)
	p := cb.Params()
	rng := tensor.NewRNG(1)
	w := tensor.New(4, 4)
	rng.FillNormal(w, 0, 1)
	stats := cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	if stats.Pulses == 0 {
		t.Fatal("fresh mapping must program devices")
	}
	if stats.Clipped != 0 {
		t.Fatal("fresh mapping must not clip")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r := cb.Device(i, j).Resistance()
			lvl := p.Grid().NearestLevel(r)
			if math.Abs(p.LevelResistance(lvl)-r) > 1e-6 {
				t.Fatalf("device (%d,%d) resistance %g not on level grid", i, j, r)
			}
		}
	}
}

func TestEffectiveWeightsWithinQuantizationError(t *testing.T) {
	cb := newTestCrossbar(t, 6, 5)
	p := cb.Params()
	rng := tensor.NewRNG(2)
	w := tensor.New(6, 5)
	rng.FillNormal(w, 0, 0.5)
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	eff := mustEff(t, cb)

	wMin, wMax := w.MinMax()
	// Worst-case quantization error in weight units: one conductance
	// gap, which is largest at the low-resistance end.
	gGapMax := 1/p.LevelResistance(0) - 1/p.LevelResistance(1)
	errMax := gGapMax / (p.GmaxFresh() - p.GminFresh()) * (wMax - wMin)
	for i, v := range w.Data() {
		if math.Abs(eff.Data()[i]-v) > errMax {
			t.Fatalf("effective weight %d error %g exceeds worst-case quantization %g",
				i, math.Abs(eff.Data()[i]-v), errMax)
		}
	}
}

func TestMapWeightsClipsOnAgedDevices(t *testing.T) {
	cb := newTestCrossbar(t, 2, 2)
	p := cb.Params()
	// Age device (0,0) moderately: a few full-range cycles shave the
	// top levels off while keeping the window inside the fresh grid.
	d := cb.Device(0, 0)
	for k := 0; k < 3; k++ {
		d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
		d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
	}
	_, hi := cb.AgedBounds(0, 0)
	if hi >= p.RmaxFresh {
		t.Fatal("cycling must shrink the upper bound")
	}
	if hi <= p.RminFresh {
		t.Fatalf("test setup over-aged the device: upper bound %g below the grid", hi)
	}
	// Map a weight that wants the top of the resistance range onto the
	// aged device (weight wMin -> rHi).
	w := tensor.FromSlice([]float64{-1, 1, 0.5, 0.2}, 2, 2)
	stats := cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	if stats.Clipped == 0 {
		t.Fatal("mapping onto the aged device must clip")
	}
	if got := cb.Device(0, 0).Resistance(); got > hi+1e-6 {
		t.Fatalf("aged device programmed to %g beyond its bound %g", got, hi)
	}
}

func TestStepDeviceDirection(t *testing.T) {
	cb := newTestCrossbar(t, 3, 1)
	p := cb.Params()
	// Device (1,0) carries the mid weight and lands mid-grid, away from
	// the range endpoints where aging pins movement.
	w := tensor.FromSlice([]float64{-1, 0, 1}, 3, 1)
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	r0 := cb.Device(1, 0).Resistance()
	if s, applied := cb.StepDevice(1, 0, +1); s <= 0 || !applied { // weight up -> resistance down
		t.Fatal("mid-grid step must cost stress and apply")
	}
	r1 := cb.Device(1, 0).Resistance()
	if r1 >= r0 {
		t.Fatalf("positive step must lower resistance: %g -> %g", r0, r1)
	}
	cb.StepDevice(1, 0, -1)
	r2 := cb.Device(1, 0).Resistance()
	if r2 <= r1 {
		t.Fatalf("negative step must raise resistance: %g -> %g", r1, r2)
	}
	if s, applied := cb.StepDevice(1, 0, 0); s != 0 || applied {
		t.Fatal("zero step must be free")
	}
}

func TestStepDevicePinsAtGridEnds(t *testing.T) {
	cb := newTestCrossbar(t, 1, 1)
	p := cb.Params()
	w := tensor.FromSlice([]float64{1}, 1, 1) // maps near rLo already
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	for k := 0; k < p.Levels+5; k++ {
		cb.StepDevice(0, 0, +1)
	}
	if cb.Device(0, 0).Resistance() < p.RminFresh {
		t.Fatal("stepping past the grid must pin at RminFresh")
	}
}

func TestDriftStaysInWindow(t *testing.T) {
	cb := newTestCrossbar(t, 4, 4)
	p := cb.Params()
	rng := tensor.NewRNG(5)
	w := tensor.New(4, 4)
	rng.FillNormal(w, 0, 1)
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	cb.Drift(0.08, rng)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			lo, hi := cb.AgedBounds(i, j)
			r := cb.Device(i, j).Resistance()
			if r < lo-1e-9 || r > hi+1e-9 {
				t.Fatalf("drifted device (%d,%d) at %g outside [%g, %g]", i, j, r, lo, hi)
			}
		}
	}
}

func TestTracedIndicesOneOfNine(t *testing.T) {
	cb := newTestCrossbar(t, 9, 9)
	idx := cb.TracedIndices()
	if len(idx) != 9 {
		t.Fatalf("9x9 array traces %d devices, want 9 (1 of 9)", len(idx))
	}
	for _, ij := range idx {
		if ij[0]%3 != 1 || ij[1]%3 != 1 {
			t.Fatalf("traced device %v is not a 3x3 block center", ij)
		}
	}
	// Tiny arrays still trace something.
	tiny := newTestCrossbar(t, 1, 1)
	if len(tiny.TracedIndices()) != 1 {
		t.Fatal("1x1 array must trace its single device")
	}
}

func TestTracedBoundsSortedAndFresh(t *testing.T) {
	cb := newTestCrossbar(t, 9, 9)
	p := cb.Params()
	ubs := cb.TracedUpperBounds(false)
	for i, v := range ubs {
		if v != p.RmaxFresh {
			t.Fatalf("fresh traced upper bound %d = %g, want %g", i, v, p.RmaxFresh)
		}
	}
	cb.RandomizeAging(0.5, tensor.NewRNG(4))
	cb.AddStress(5)
	ubs = cb.TracedUpperBounds(false)
	for i := 1; i < len(ubs); i++ {
		if ubs[i] < ubs[i-1] {
			t.Fatal("traced bounds must be sorted ascending")
		}
	}
	if ubs[0] == ubs[len(ubs)-1] {
		t.Fatal("devices with spread aging factors must trace distinct bounds")
	}
}

func TestQuantizeWeightsDoesNotProgram(t *testing.T) {
	cb := newTestCrossbar(t, 4, 4)
	p := cb.Params()
	rng := tensor.NewRNG(6)
	w := tensor.New(4, 4)
	rng.FillNormal(w, 0, 1)
	q, narrow := tensor.New(4, 4), tensor.New(4, 4)
	cb.QuantizeWeightsInto(q, w, p.RminFresh, p.RmaxFresh)
	if cb.TotalPulses() != 0 {
		t.Fatal("QuantizeWeightsInto must not touch hardware")
	}
	// Quantization onto a narrower range loses more information.
	cb.QuantizeWeightsInto(narrow, w, p.RminFresh, p.LevelResistance(4))
	errWide, errNarrow := 0.0, 0.0
	for i, v := range w.Data() {
		errWide += math.Abs(q.Data()[i] - v)
		errNarrow += math.Abs(narrow.Data()[i] - v)
	}
	if errNarrow <= errWide {
		t.Fatalf("narrow-range quantization error %g must exceed full-range %g", errNarrow, errWide)
	}
}

func TestUsableLevelStatsFresh(t *testing.T) {
	cb := newTestCrossbar(t, 3, 3)
	min, mean := cb.UsableLevelStats()
	if min != 32 || mean != 32 {
		t.Fatalf("fresh usable stats = %d/%g, want 32/32", min, mean)
	}
}

func TestReadBeforeMapReturnsErrNotMapped(t *testing.T) {
	cb := newTestCrossbar(t, 2, 2)
	if err := cb.ReadWeightsInto(tensor.New(2, 2)); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("ReadWeightsInto before mapping: err = %v, want ErrNotMapped", err)
	}
}

func TestReadSizeMismatchReturnsError(t *testing.T) {
	cb := newTestCrossbar(t, 3, 2)
	p := cb.Params()
	w := tensor.New(3, 2)
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	if err := cb.ReadWeightsInto(tensor.New(4)); err == nil {
		t.Fatal("ReadWeightsInto with a wrong destination size must return an error")
	}
}
