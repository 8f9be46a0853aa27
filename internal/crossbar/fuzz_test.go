package crossbar

import (
	"math"
	"testing"
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
