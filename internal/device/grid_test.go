package device

import (
	"math"
	"testing"
)

// TestGridMatchesParams pins every Grid method against its Params
// counterpart or reference formula on the shipped technologies.
func TestGridMatchesParams(t *testing.T) {
	for _, p := range []Params{Params32(), Params64(), {RminFresh: 5e3, RmaxFresh: 2e5, Levels: 7, Vprog: 1.5, PulseWidth: 50e-9, StressDerate: 0.4}} {
		g := p.Grid()
		if g != p.Grid() {
			t.Fatal("grid must be cached per Params value")
		}
		if g.LevelSpacing() != p.LevelSpacing() {
			t.Fatalf("spacing %v != %v", g.LevelSpacing(), p.LevelSpacing())
		}
		if g.TunePulseDeltaG() != p.TunePulseDeltaG() {
			t.Fatalf("tune delta %v != %v", g.TunePulseDeltaG(), p.TunePulseDeltaG())
		}
		for i := 0; i < p.Levels; i++ {
			if g.LevelResistance(i) != p.LevelResistance(i) {
				t.Fatalf("level %d: %v != %v", i, g.LevelResistance(i), p.LevelResistance(i))
			}
		}
		for _, r := range []float64{p.RminFresh / 2, p.RminFresh, (p.RminFresh + p.RmaxFresh) / 2, p.RmaxFresh, p.RmaxFresh * 2} {
			if g.NearestLevel(r) != refNearestLevel(p, r) {
				t.Fatalf("NearestLevel(%g): %d != %d", r, g.NearestLevel(r), refNearestLevel(p, r))
			}
			if g.PulseStress(r) != refPulseStress(p, r) {
				t.Fatalf("PulseStress(%g): %v != %v", r, g.PulseStress(r), refPulseStress(p, r))
			}
		}
	}
}

// Reference implementations of the level-selection arithmetic: the
// exact direct formulas, without the LUT's precomputed constants. They
// are kept here, test-local, so the tests pin the one production
// implementation (Grid) against an independent spelling instead of
// comparing it to itself.

func refNearestLevel(p Params, r float64) int {
	i := int(math.Round((r - p.RminFresh) / p.LevelSpacing()))
	if i < 0 {
		i = 0
	}
	if i >= p.Levels {
		i = p.Levels - 1
	}
	return i
}

func refWindowLevels(p Params, lo, hi float64) (int, int) {
	loLvl := int(math.Ceil((lo - p.RminFresh) / p.LevelSpacing()))
	hiLvl := int(math.Floor((hi - p.RminFresh) / p.LevelSpacing()))
	if loLvl < 0 {
		loLvl = 0
	}
	if hiLvl >= p.Levels {
		hiLvl = p.Levels - 1
	}
	return loLvl, hiLvl
}

func refNearestLevelIn(p Params, r, lo, hi float64) int {
	loLvl, hiLvl := refWindowLevels(p, lo, hi)
	if loLvl > hiLvl {
		// No level inside the aged window; use the nearest grid point
		// to the window midpoint.
		return refNearestLevel(p, (lo+hi)/2)
	}
	i := refNearestLevel(p, r)
	if i < loLvl {
		return loLvl
	}
	if i > hiLvl {
		return hiLvl
	}
	return i
}

func refUsableLevels(p Params, lo, hi float64) int {
	loLvl, hiLvl := refWindowLevels(p, lo, hi)
	if loLvl > hiLvl {
		return 0
	}
	return hiLvl - loLvl + 1
}

func refPulseStress(p Params, r float64) float64 {
	if p.UniformStress {
		return math.Sqrt(p.RminFresh/p.RmaxFresh) * p.StressDerate
	}
	return (p.Vprog * p.Vprog / r * p.PulseWidth) / p.refPulseEnergy() * p.StressDerate
}

// FuzzQuantLUTMatchesDirect is the LUT-path equivalence fuzz: over
// random technologies (level counts, ranges, derates, the uniform
// ablation) and random aged/faulted bounds states, the grid-based level
// selection and pulse-stress computation must be bit-identical to the
// direct reference formulas above. The seed corpus covers the shipped technologies, collapsed aged
// windows (no level inside the window), inverted-window midpoint
// fallbacks, and off-grid drifted resistances.
func FuzzQuantLUTMatchesDirect(f *testing.F) {
	f.Add(10e3, 100e3, 32, 55e3, 12e3, 90e3, 0.0, false)
	f.Add(10e3, 100e3, 64, 100e3, 500.0, 3.4e3, 1.0, false) // window below the grid
	f.Add(10e3, 100e3, 2, 10e3, 99e3, 99.5e3, 0.5, true)    // no level inside the window
	f.Add(5e3, 2e5, 7, 1.23e4, 5e3, 2e5, 0.25, false)       // coarse grid, off-grid r
	f.Add(1.0, 2.0, 1024, 1.5005, 1.2, 1.9, 0.0, false)     // dense grid
	f.Fuzz(func(t *testing.T, rmin, rmax float64, levels int, r, lo, hi float64, derate float64, uniform bool) {
		p := Params{
			RminFresh: rmin, RmaxFresh: rmax, Levels: levels,
			Vprog: 2.0, PulseWidth: 100e-9,
			UniformStress: uniform, StressDerate: derate,
		}
		if p.Validate() != nil || levels > 1<<16 {
			t.Skip()
		}
		// Bounds states come from the aging model, which keeps lo
		// positive and hi >= lo; mirror that sanitization but keep the
		// values otherwise arbitrary.
		if !(lo > 0) || !(hi >= lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			t.Skip()
		}
		if !(r > 0) || math.IsInf(r, 0) {
			t.Skip()
		}
		g := p.Grid()
		if got, want := g.NearestLevel(r), refNearestLevel(p, r); got != want {
			t.Fatalf("NearestLevel(%g): grid %d, direct %d", r, got, want)
		}
		gotIn, wantIn := g.NearestLevelIn(r, lo, hi), refNearestLevelIn(p, r, lo, hi)
		if gotIn != wantIn {
			t.Fatalf("NearestLevelIn(%g, %g, %g): grid %d, direct %d", r, lo, hi, gotIn, wantIn)
		}
		if g.LevelResistance(gotIn) != p.LevelResistance(wantIn) {
			t.Fatalf("LevelResistance(%d): grid %v, direct %v", gotIn, g.LevelResistance(gotIn), p.LevelResistance(wantIn))
		}
		if got, want := g.UsableLevels(lo, hi), refUsableLevels(p, lo, hi); got != want {
			t.Fatalf("UsableLevels(%g, %g): grid %d, direct %d", lo, hi, got, want)
		}
		if got, want := g.PulseStress(r), refPulseStress(p, r); got != want {
			t.Fatalf("PulseStress(%g): grid %v, direct %v", r, got, want)
		}
	})
}
