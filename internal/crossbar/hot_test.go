package crossbar

import (
	"fmt"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/tensor"
)

// Oracle-equivalence and allocation tests for the zero-alloc hot path
// (hot.go): the flat-walk mapping against a per-cell reimplementation
// of the original algorithm, the LUT quantization against the direct
// formula, and StepDevices against the sequential StepDevice retry
// loop — all compared with == across fault, aging, and temperature
// configurations.

// oracleMapWeights reprograms cb with the original per-cell MapWeights
// algorithm through the public API: per-element TargetResistance, fresh
// model.Bounds from the device's actual stress, Device.Program.
func oracleMapWeights(cb *Crossbar, w *tensor.Tensor, rLo, rHi float64) MapStats {
	wMin, wMax := w.MinMax()
	var stats MapStats
	for i := 0; i < cb.Rows; i++ {
		for j := 0; j < cb.Cols; j++ {
			target := TargetResistance(w.At(i, j), wMin, wMax, rLo, rHi)
			d := cb.Device(i, j)
			lo, hi := cb.Model().Bounds(cb.Params(), d.Stress(), cb.TempK())
			res := d.Program(target, lo, hi)
			stats.Pulses += res.Pulses
			stats.Stress += res.Stress
			if res.Clipped {
				stats.Clipped++
			}
			if res.Stuck {
				stats.Stuck++
			}
		}
	}
	return stats
}

// oracleMapWeightsCompensated is the per-cell reimplementation of
// fault-aware MapWeights: per-column stuck-error compensation, stuck
// devices skipped.
func oracleMapWeightsCompensated(cb *Crossbar, w *tensor.Tensor, rLo, rHi float64) MapStats {
	wMin, wMax := w.MinMax()
	comp := make([]float64, cb.Cols)
	for j := 0; j < cb.Cols; j++ {
		errSum := 0.0
		healthy := 0
		for i := 0; i < cb.Rows; i++ {
			d := cb.Device(i, j)
			if d.Stuck() {
				errSum += EffectiveWeight(d.Resistance(), wMin, wMax, rLo, rHi) - w.At(i, j)
			} else {
				healthy++
			}
		}
		if healthy > 0 {
			comp[j] = -errSum / float64(healthy)
		}
	}
	var stats MapStats
	for i := 0; i < cb.Rows; i++ {
		for j := 0; j < cb.Cols; j++ {
			d := cb.Device(i, j)
			if d.Stuck() {
				stats.Skipped++
				continue
			}
			target := TargetResistance(w.At(i, j)+comp[j], wMin, wMax, rLo, rHi)
			lo, hi := cb.Model().Bounds(cb.Params(), d.Stress(), cb.TempK())
			res := d.Program(target, lo, hi)
			stats.Pulses += res.Pulses
			stats.Stress += res.Stress
			if res.Clipped {
				stats.Clipped++
			}
		}
	}
	return stats
}

// TestMapWeightsMatchesDirectOracle programs twin arrays — one through
// the LUT/memo hot path, one through the per-cell oracle — across fresh,
// aged, hot, and faulted configurations (two mapping passes each, so
// the memo serves both cold and warm entries), and requires identical
// MapStats and identical per-device resistance and stress.
func TestMapWeightsMatchesDirectOracle(t *testing.T) {
	cases := []struct {
		name   string
		aged   bool
		tempK  float64
		faults bool
		aware  bool
	}{
		{name: "fresh"},
		{name: "aged", aged: true},
		{name: "hot", tempK: 350},
		{name: "aged-hot", aged: true, tempK: 350},
		{name: "faulted", faults: true},
		{name: "fault-aware", faults: true, aware: true},
		{name: "fault-aware-aged-hot", faults: true, aware: true, aged: true, tempK: 350},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const rows, cols = 9, 7
			tempK := 300.0
			if tc.tempK != 0 {
				tempK = tc.tempK
			}
			build := func() *Crossbar {
				cb, err := New(rows, cols, device.Params32(), aging.DefaultModel(), tempK, 0)
				if err != nil {
					t.Fatal(err)
				}
				if tc.faults {
					inj, err := fault.NewInjector(fault.Config{StuckRate: 0.08, LRSFrac: 0.5, Seed: 31}, rows*cols, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := cb.SetFaultInjector(inj); err != nil {
						t.Fatal(err)
					}
				}
				return cb
			}
			hot, oracle := build(), build()
			if tc.aged {
				hot.RandomizeAging(0.3, tensor.NewRNG(8))
				oracle.RandomizeAging(0.3, tensor.NewRNG(8))
				hot.AddStress(5)
				oracle.AddStress(5)
			}
			w := tensor.New(rows, cols)
			tensor.NewRNG(12).FillNormal(w, 0, 0.5)
			params := hot.Params()

			compare := func(pass string, gotStats, wantStats MapStats) {
				t.Helper()
				if gotStats != wantStats {
					t.Fatalf("%s: MapStats differ: hot %+v, oracle %+v", pass, gotStats, wantStats)
				}
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						dh, do := hot.Device(i, j), oracle.Device(i, j)
						if dh.Resistance() != do.Resistance() {
							t.Fatalf("%s: device (%d,%d) resistance: hot %v, oracle %v", pass, i, j, dh.Resistance(), do.Resistance())
						}
						if dh.Stress() != do.Stress() {
							t.Fatalf("%s: device (%d,%d) stress: hot %v, oracle %v", pass, i, j, dh.Stress(), do.Stress())
						}
					}
				}
			}

			rLo, rHi := params.RminFresh, params.RmaxFresh
			narrowHi := rLo + 0.8*(rHi-rLo)
			passes := []struct {
				name string
				hi   float64
			}{{"full-range", rHi}, {"narrow-range", narrowHi}}
			for _, ps := range passes {
				pass, hi := ps.name, ps.hi
				var gotStats, wantStats MapStats
				gotStats = hot.MapWeights(w, rLo, hi, tc.aware)
				if tc.aware {
					wantStats = oracleMapWeightsCompensated(oracle, w, rLo, hi)
				} else {
					wantStats = oracleMapWeights(oracle, w, rLo, hi)
				}
				compare(pass, gotStats, wantStats)
			}
		})
	}
}

// TestQuantizeWeightsIntoMatchesDirect pins the hoisted LUT quantization
// against the direct per-element formula, including a window so narrow
// no level falls inside it (the midpoint fallback).
func TestQuantizeWeightsIntoMatchesDirect(t *testing.T) {
	const rows, cols = 6, 11
	cb := newTestCrossbar(t, rows, cols)
	p := cb.Params()
	w := tensor.New(rows, cols)
	tensor.NewRNG(3).FillNormal(w, 0, 0.7)

	spacing := p.LevelSpacing()
	ranges := [][2]float64{
		{p.RminFresh, p.RmaxFresh},
		{p.RminFresh, p.RminFresh + 0.6*(p.RmaxFresh-p.RminFresh)},
		{p.RminFresh + 2.5*spacing, p.RmaxFresh - 3.5*spacing},
		// No grid point inside: strictly between two adjacent levels.
		{p.RminFresh + 5.3*spacing, p.RminFresh + 5.7*spacing},
	}
	dst := tensor.New(rows, cols)
	for _, rr := range ranges {
		rLo, rHi := rr[0], rr[1]
		cb.QuantizeWeightsInto(dst, w, rLo, rHi)
		wMin, wMax := w.MinMax()
		for i, v := range w.Data() {
			target := TargetResistance(v, wMin, wMax, rLo, rHi)
			lvl := p.Grid().NearestLevelIn(target, rLo, rHi)
			want := EffectiveWeight(p.LevelResistance(lvl), wMin, wMax, rLo, rHi)
			if dst.Data()[i] != want {
				t.Fatalf("range [%g,%g], element %d: got %v, want %v", rLo, rHi, i, dst.Data()[i], want)
			}
		}
	}
}

// TestStepDevicesMatchesStepDeviceLoop applies the same pulse list to
// twin faulted arrays — one through the batched StepDevices, one
// through the sequential Stuck + StepDevice retry loop the tuning
// controller used to run — and requires identical device state, stats,
// and injector draw consumption.
func TestStepDevicesMatchesStepDeviceLoop(t *testing.T) {
	for _, retryBudget := range []int{0, 2} {
		t.Run(fmt.Sprintf("retries=%d", retryBudget), func(t *testing.T) {
			const rows, cols = 8, 9
			batched, seq := newFaultedCrossbar(t, rows, cols, 606), newFaultedCrossbar(t, rows, cols, 606)
			params := batched.Params()
			w := tensor.New(rows, cols)
			tensor.NewRNG(4).FillNormal(w, 0, 0.5)
			batched.MapWeights(w, params.RminFresh, params.RmaxFresh, false)
			seq.MapWeights(w, params.RminFresh, params.RmaxFresh, false)

			ops := tensor.NewRNG(7)
			steps := make([]Step, 0, 64)
			for k := 0; k < 64; k++ {
				dir := 1
				if ops.Float64() < 0.5 {
					dir = -1
				}
				steps = append(steps, Step{I: ops.Intn(rows), J: ops.Intn(cols), Dir: dir})
			}

			st := batched.StepDevices(steps, retryBudget)

			var want StepStats
			for _, sp := range steps {
				if seq.Device(sp.I, sp.J).Stuck() {
					want.StuckSkipped++
					continue
				}
				s, applied := seq.StepDevice(sp.I, sp.J, sp.Dir)
				want.Stress += s
				want.Pulses++
				for attempt := 0; !applied && attempt < retryBudget; attempt++ {
					want.Retries++
					s, applied = seq.StepDevice(sp.I, sp.J, sp.Dir)
					want.Stress += s
					want.Pulses++
				}
				if applied {
					want.Applied++
				}
			}
			if st != want {
				t.Fatalf("StepStats differ: batched %+v, sequential %+v", st, want)
			}
			// Device state and remaining injector streams must agree: one
			// readback of each array, compared cell for cell.
			readB, readS := mustEff(t, batched), mustEff(t, seq)
			for i, v := range readS.Data() {
				if readB.Data()[i] != v {
					t.Fatalf("post-step readback %d differs: batched %v, sequential %v", i, readB.Data()[i], v)
				}
			}
		})
	}
}

// TestHotPathZeroAlloc pins the steady-state allocation contract of
// ReadWeightsInto, QuantizeWeightsInto, MapWeights and StepDevices:
// after one warming call, zero heap allocations per operation. Skipped under the
// race detector (instrumentation allocates).
func TestHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const rows, cols = 16, 12
	cb := newTestCrossbar(t, rows, cols)
	params := cb.Params()
	w := tensor.New(rows, cols)
	tensor.NewRNG(5).FillNormal(w, 0, 0.5)
	cb.MapWeights(w, params.RminFresh, params.RmaxFresh, false)

	dstW := tensor.New(rows, cols)
	steps := []Step{{I: 1, J: 2, Dir: 1}, {I: 3, J: 4, Dir: -1}, {I: 5, J: 1, Dir: 1}}

	assertZero := func(name string, f func()) {
		t.Helper()
		f() // warm scratch buffers and the aged-bounds memo
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	assertZero("ReadWeightsInto", func() {
		if err := cb.ReadWeightsInto(dstW); err != nil {
			t.Fatal(err)
		}
	})
	assertZero("StepDevices", func() { cb.StepDevices(steps, 2) })
	assertZero("MapWeights", func() { cb.MapWeights(w, params.RminFresh, params.RmaxFresh, false) })
	assertZero("QuantizeWeightsInto", func() { cb.QuantizeWeightsInto(dstW, w, params.RminFresh, params.RmaxFresh) })

	// The burst read path writes the noisy readback straight into the
	// destination: with an always-bursting injector, still zero
	// allocations.
	inj, err := fault.NewInjector(fault.Config{ReadBurstProb: 0.99, ReadBurstSigma: 0.05, Seed: 9}, rows*cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.SetFaultInjector(inj); err != nil {
		t.Fatal(err)
	}
	assertZero("ReadWeightsInto/burst", func() {
		if err := cb.ReadWeightsInto(dstW); err != nil {
			t.Fatal(err)
		}
	})
}
