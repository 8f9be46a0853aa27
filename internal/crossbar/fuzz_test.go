package crossbar

import (
	"fmt"
	"math"
	"testing"

	"memlife/internal/tensor"
)

// FuzzTargetEffectiveRoundTrip checks the eq. (4) pair: for any valid
// mapping ranges, EffectiveWeight(TargetResistance(w)) must return w
// (up to floating-point error), and both directions must stay finite.
// The seeded corpus covers the fresh range, narrow aged ranges, and
// degenerate weight windows.
func FuzzTargetEffectiveRoundTrip(f *testing.F) {
	f.Add(0.3, -1.0, 1.0, 1e3, 1e4)
	f.Add(-0.5, -0.5, 0.5, 500.0, 20_000.0)
	f.Add(0.0, 0.0, 0.0, 1e3, 1e4) // degenerate weight window
	f.Add(1.0, 1.0, 1.0001, 1e3, 1e4)
	f.Add(-3.0, -1.0, 1.0, 900.0, 1_000.0) // w outside the window, narrow range
	f.Fuzz(func(t *testing.T, w, wMin, wMax, rLo, rHi float64) {
		// Constrain to the domain the simulation guarantees: positive,
		// ordered resistance ranges and finite weight windows.
		if !(rLo > 0) || !(rHi > rLo) || rHi > 1e12 {
			t.Skip()
		}
		for _, v := range []float64{w, wMin, wMax} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		r := TargetResistance(w, wMin, wMax, rLo, rHi)
		if math.IsNaN(r) || r <= 0 {
			t.Fatalf("TargetResistance(%g, [%g,%g], [%g,%g]) = %g, want positive finite", w, wMin, wMax, rLo, rHi, r)
		}
		// The clamping contract: the target never leaves the selected
		// range (allow 1 ulp of slack from the conductance inversion).
		if r < rLo*(1-1e-12) || r > rHi*(1+1e-12) {
			t.Fatalf("TargetResistance(%g, [%g,%g], [%g,%g]) = %g escapes [rLo, rHi]", w, wMin, wMax, rLo, rHi, r)
		}
		got := EffectiveWeight(r, wMin, wMax, rLo, rHi)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("EffectiveWeight round trip gave %g", got)
		}
		gMin, gMax := 1/rHi, 1/rLo
		if wMax <= wMin || gMax <= gMin {
			// Degenerate window (either axis): reads back wMin by contract.
			if got != wMin {
				t.Fatalf("degenerate window must read back wMin=%g, got %g", wMin, got)
			}
			return
		}
		// Out-of-window weights clamp to the nearest representable edge;
		// in-window weights must round-trip up to float error. The error
		// budget scales with the conditioning of the conductance map: a
		// relative rounding error in g is amplified by gMax/(gMax-gMin)
		// when converted back to weight units (nearly-degenerate
		// resistance ranges legitimately lose all precision).
		want := w
		if want < wMin {
			want = wMin
		} else if want > wMax {
			want = wMax
		}
		tol := 1e-9*(1+math.Abs(want)) + 1e-12*gMax/(gMax-gMin)*(wMax-wMin)
		if math.Abs(got-want) > tol {
			t.Fatalf("round trip drifted: w=%g -> r=%g -> %g (want %g, err %g > tol %g)", w, r, got, want, math.Abs(got-want), tol)
		}
	})
}

// FuzzCacheInvalidation drives a cached and a naive array through a
// fuzz-chosen operation sequence and requires bit-identical readbacks
// after every operation — the fuzz twin of TestEquivalenceCachedVsNaive,
// free to discover operation interleavings the table misses. Pulses go
// through StepDevices, the cache-patching path production uses.
func FuzzCacheInvalidation(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(42), []byte{2, 0, 0, 1, 2, 4, 4, 0})
	f.Add(int64(7), []byte{5, 5, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		const rows, cols = 6, 5
		p := newEquivPair(t, rows, cols, true, seed)
		params := p.cached.Params()
		ops := tensor.NewRNG(seed)

		w := tensor.New(rows, cols)
		ops.FillNormal(w, 0, 0.5)
		rLo, rHi := params.RminFresh, params.RmaxFresh

		p.cached.MapWeights(w, rLo, rHi)
		p.naive.MapWeights(w, rLo, rHi)

		for step, op := range script {
			switch op % 6 {
			case 0:
				s := Step{I: ops.Intn(rows), J: ops.Intn(cols), Dir: 1}
				if op&0x80 != 0 {
					s.Dir = -1
				}
				p.pulse(t, fmt.Sprintf("step %d", step), []Step{s})
			case 1:
				p.cached.Drift(0.04, p.rngC)
				p.naive.Drift(0.04, p.rngN)
			case 2:
				p.cached.MapWeights(w, rLo, rHi)
				p.naive.MapWeights(w, rLo, rHi)
			case 3:
				p.cached.AddStress(2)
				p.naive.AddStress(2)
			case 4:
				p.cached.AdvanceFaults()
				p.naive.AdvanceFaults()
			case 5:
				p.cached.MapWeightsFaultAware(w, rLo, rHi)
				p.naive.MapWeightsFaultAware(w, rLo, rHi)
			}
			p.check(t, fmt.Sprintf("step %d (op %d)", step, op%6))
		}
	})
}
