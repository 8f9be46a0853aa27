package crossbar

import (
	"math"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/tensor"
)

func newFaultArray(t *testing.T, rows, cols int, cfg fault.Config) *Crossbar {
	t.Helper()
	cb, err := New(rows, cols, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(cfg, rows*cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.SetFaultInjector(inj); err != nil {
		t.Fatal(err)
	}
	return cb
}

func TestSetFaultInjectorSizeMismatch(t *testing.T) {
	cb, err := New(4, 4, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Config{StuckRate: 0.1}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.SetFaultInjector(inj); err == nil {
		t.Fatal("injector of the wrong size must be rejected")
	}
}

func TestInitialFaultsApplied(t *testing.T) {
	cfg := fault.Config{StuckRate: 0.3, LRSFrac: 1.0, Seed: 3}
	cb := newFaultArray(t, 20, 20, cfg)
	lrs, hrs := cb.StuckCounts()
	if lrs == 0 {
		t.Fatal("a 30% stuck rate must produce stuck devices")
	}
	if hrs != 0 {
		t.Fatalf("LRSFrac=1 must produce no HRS faults, got %d", hrs)
	}
	p := cb.Params()
	seen := 0
	for i := 0; i < cb.Rows; i++ {
		for j := 0; j < cb.Cols; j++ {
			if !cb.Device(i, j).Stuck() {
				continue
			}
			seen++
			if r := cb.Device(i, j).Resistance(); r != p.RminFresh {
				t.Fatalf("stuck-at-LRS device (%d,%d) must pin at RminFresh, got %g", i, j, r)
			}
		}
	}
	if seen != lrs {
		t.Fatalf("Stuck count %d disagrees with StuckCounts %d", seen, lrs)
	}
}

// TestStuckDeviceIgnoresProgramming locks the permanence of hard
// faults: pulses and drift leave a stuck device's resistance pinned,
// while failed pulses still accumulate stress (no free writes).
func TestStuckDeviceIgnoresProgramming(t *testing.T) {
	cfg := fault.Config{StuckRate: 0.5, LRSFrac: 1.0, Seed: 1}
	cb := newFaultArray(t, 10, 10, cfg)
	var si, sj int
	found := false
	for i := 0; i < cb.Rows && !found; i++ {
		for j := 0; j < cb.Cols && !found; j++ {
			if cb.Device(i, j).Stuck() {
				si, sj = i, j
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no stuck device at 50% rate")
	}
	d := cb.Device(si, sj)
	r0 := d.Resistance()
	stress0 := d.Stress()
	if s, applied := cb.StepDevice(si, sj, +1); applied || s <= 0 {
		t.Fatalf("pulsing a stuck device must fail but still stress it (applied=%v stress=%g)", applied, s)
	}
	if st := cb.StepDevices([]Step{{I: si, J: sj, Dir: +1}}, 2); st.StuckSkipped != 1 || st.Pulses != 0 {
		t.Fatalf("StepDevices must skip a stuck device without pulsing it, got %+v", st)
	}
	if d.Resistance() != r0 {
		t.Fatal("stuck device moved under a pulse")
	}
	if d.Stress() <= stress0 {
		t.Fatal("failed pulse must accumulate stress")
	}
	cb.Drift(0.2, tensor.NewRNG(9))
	if d.Resistance() != r0 {
		t.Fatal("stuck device moved under drift")
	}
}

// faultedMapping maps w once onto a fresh array carrying cfg's stuck
// faults at the given rate (read bursts and transient failures off, so
// the readback measures mapping quality, not read noise) and returns
// the realized weights, the mapping cost, the stuck census and the RMS
// per-column current error: the column sums of effective minus target
// weights, which is what the fault-aware compensation targets.
func faultedMapping(t *testing.T, w *tensor.Tensor, cfg fault.Config, rate float64, aware bool) (eff *tensor.Tensor, stats MapStats, stuck int, colErr float64) {
	t.Helper()
	cfg.StuckRate = rate
	rows, cols := w.Dim(0), w.Dim(1)
	cb := newFaultArray(t, rows, cols, cfg)
	p := cb.Params()
	stats = cb.MapWeights(w, p.RminFresh, p.RmaxFresh, aware)
	eff = mustEff(t, cb)
	col := make([]float64, cols)
	for i, v := range eff.Data() {
		col[i%cols] += v - w.Data()[i]
	}
	for _, e := range col {
		colErr += e * e
	}
	lrs, hrs := cb.StuckCounts()
	return eff, stats, lrs + hrs, math.Sqrt(colErr / float64(cols))
}

// TestFaultAwareMappingCompensates: with stuck devices present, the
// fault-aware mapping must realize the column currents with lower error
// than the plain mapping, waste no writes on stuck cells, and degrade
// to identical behavior on a clean array. Elementwise error is allowed
// to be slightly worse — the compensation deliberately perturbs
// healthy weights to fix the column sums.
func TestFaultAwareMappingCompensates(t *testing.T) {
	rng := tensor.NewRNG(5)
	w := tensor.New(24, 16)
	for i := range w.Data() {
		w.Data()[i] = rng.Normal(0, 0.3)
	}
	cfg := fault.Config{LRSFrac: 0.5, Seed: 2}

	cleanPlain, _, stuck, cleanPlainCol := faultedMapping(t, w, cfg, 0, false)
	cleanAware, _, _, cleanAwareCol := faultedMapping(t, w, cfg, 0, true)
	if stuck != 0 {
		t.Fatal("rate 0 must have no stuck devices")
	}
	for i, v := range cleanPlain.Data() {
		if cleanAware.Data()[i] != v {
			t.Fatalf("on a clean array both mappings must agree: weight %d plain %g vs aware %g", i, v, cleanAware.Data()[i])
		}
	}
	if cleanPlainCol != cleanAwareCol {
		t.Fatalf("on a clean array both column errors must agree: %g vs %g", cleanPlainCol, cleanAwareCol)
	}
	var densest float64
	for _, rate := range []float64{0.05, 0.15} {
		_, plainStats, stuck, plainCol := faultedMapping(t, w, cfg, rate, false)
		_, awareStats, _, awareCol := faultedMapping(t, w, cfg, rate, true)
		if stuck == 0 {
			t.Fatalf("rate %g produced no stuck devices", rate)
		}
		if awareCol >= plainCol {
			t.Fatalf("rate %g: fault-aware column error %g must beat plain %g", rate, awareCol, plainCol)
		}
		if plainStats.Stuck == 0 {
			t.Fatalf("rate %g: plain mapping must have wasted writes on stuck cells", rate)
		}
		if awareStats.Stuck != 0 || awareStats.Skipped != stuck {
			t.Fatalf("rate %g: fault-aware mapping must skip all %d stuck cells, got %+v", rate, stuck, awareStats)
		}
		densest = plainCol
	}
	// Uncompensated column error grows with defect density.
	if densest <= cleanPlainCol {
		t.Fatalf("plain column error must grow with faults: %g vs clean %g", densest, cleanPlainCol)
	}
}

func TestTracedUpperBoundsSkipsStuckWhenHealthyOnly(t *testing.T) {
	cfg := fault.Config{StuckRate: 0.4, LRSFrac: 1.0, Seed: 6}
	cb := newFaultArray(t, 12, 12, cfg)
	all := cb.TracedUpperBounds(false)
	healthy := cb.TracedUpperBounds(true)
	if len(healthy) >= len(all) {
		t.Fatalf("healthy bounds (%d) must be fewer than all traced bounds (%d)", len(healthy), len(all))
	}
	if len(healthy) == 0 {
		t.Fatal("some traced devices must remain healthy at 40%")
	}
	for i := 1; i < len(healthy); i++ {
		if healthy[i] < healthy[i-1] {
			t.Fatal("healthy bounds must be sorted")
		}
	}
}

// TestAdvanceFaultsWearOut drives the hazard end-to-end: stressing the
// array pushes devices over their capacity, AdvanceFaults converts them
// to permanent faults, and the conversion is monotone.
func TestAdvanceFaultsWearOut(t *testing.T) {
	cfg := fault.Config{HazardScale: 3, HazardSpread: 0.3, Seed: 4}
	cb := newFaultArray(t, 10, 10, cfg)
	if n := cb.AdvanceFaults(); n != 0 {
		t.Fatalf("fresh array must have no wear-out faults, got %d", n)
	}
	cb.AddStress(2.0)
	first := cb.AdvanceFaults()
	cb.AddStress(6.0)
	second := cb.AdvanceFaults()
	if first+second == 0 {
		t.Fatal("heavy stress must wear out devices")
	}
	lrs, hrs := cb.StuckCounts()
	if lrs+hrs != first+second {
		t.Fatalf("stuck census %d disagrees with AdvanceFaults total %d", lrs+hrs, first+second)
	}
	if n := cb.AdvanceFaults(); n != 0 {
		t.Fatalf("without new stress no further devices may fail, got %d", n)
	}
}
