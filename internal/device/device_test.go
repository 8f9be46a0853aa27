package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	if err := Params32().Validate(); err != nil {
		t.Fatalf("Params32 invalid: %v", err)
	}
	if err := Params64().Validate(); err != nil {
		t.Fatalf("Params64 invalid: %v", err)
	}
	finest := Params32()
	finest.Levels = MaxLevels
	if err := finest.Validate(); err != nil {
		t.Fatalf("%d levels must be accepted: %v", MaxLevels, err)
	}
	bad := []Params{
		{RminFresh: 0, RmaxFresh: 1e5, Levels: 32, Vprog: 2, PulseWidth: 1e-7, Vread: 0.3},
		{RminFresh: 1e5, RmaxFresh: 1e4, Levels: 32, Vprog: 2, PulseWidth: 1e-7, Vread: 0.3},
		{RminFresh: 1e4, RmaxFresh: 1e5, Levels: 1, Vprog: 2, PulseWidth: 1e-7, Vread: 0.3},
		{RminFresh: 1e4, RmaxFresh: 1e5, Levels: MaxLevels + 1, Vprog: 2, PulseWidth: 1e-7, Vread: 0.3},
		{RminFresh: 1e4, RmaxFresh: 1e5, Levels: 1_000_000_000_000, Vprog: 2, PulseWidth: 1e-7, Vread: 0.3},
		{RminFresh: 1e4, RmaxFresh: 1e5, Levels: 32, Vprog: 0, PulseWidth: 1e-7, Vread: 0.3},
		{RminFresh: 1e4, RmaxFresh: 1e5, Levels: 32, Vprog: 2, PulseWidth: 0, Vread: 0.3},
		{RminFresh: 1e4, RmaxFresh: 1e5, Levels: 32, Vprog: 2, PulseWidth: 1e-7, Vread: 3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: params %+v should be rejected", i, p)
		}
	}
}

func TestLevelGridEndpoints(t *testing.T) {
	p := Params32()
	if p.LevelResistance(0) != p.RminFresh {
		t.Fatalf("level 0 = %g, want RminFresh", p.LevelResistance(0))
	}
	if p.LevelResistance(p.Levels-1) != p.RmaxFresh {
		t.Fatalf("top level = %g, want RmaxFresh", p.LevelResistance(p.Levels-1))
	}
	spacing := p.LevelSpacing()
	if math.Abs(p.LevelResistance(1)-p.LevelResistance(0)-spacing) > 1e-9 {
		t.Fatal("levels must be uniform in resistance")
	}
}

func TestLevelConductancesDenseNearGmin(t *testing.T) {
	// The defining non-uniformity of Fig. 3(c): conductance gaps shrink
	// towards the high-resistance end.
	p := Params32()
	g := func(i int) float64 { return 1 / p.LevelResistance(i) }
	gapLow := g(0) - g(1)                    // near Gmax
	gapHigh := g(p.Levels-2) - g(p.Levels-1) // near Gmin
	if gapHigh >= gapLow {
		t.Fatalf("conductance grid must be denser near Gmin: gaps %g (low R) vs %g (high R)", gapLow, gapHigh)
	}
}

func TestNearestLevelRoundTrip(t *testing.T) {
	p := Params32()
	for i := 0; i < p.Levels; i++ {
		if p.Grid().NearestLevel(p.LevelResistance(i)) != i {
			t.Fatalf("NearestLevel(LevelResistance(%d)) != %d", i, i)
		}
	}
	if p.Grid().NearestLevel(0) != 0 {
		t.Fatal("below-range resistance must clamp to level 0")
	}
	if p.Grid().NearestLevel(1e9) != p.Levels-1 {
		t.Fatal("above-range resistance must clamp to top level")
	}
}

func TestNearestLevelInClipsToWindow(t *testing.T) {
	p := Params32()
	// Aged window keeps only the lowest 3 levels.
	lo, hi := p.RminFresh, p.LevelResistance(2)
	got := p.Grid().NearestLevelIn(p.RmaxFresh, lo, hi) // "program to Level 31"
	if got != 2 {
		t.Fatalf("clipped level = %d, want 2 (Fig. 4 behaviour)", got)
	}
	// A target inside the window is untouched.
	if p.Grid().NearestLevelIn(p.LevelResistance(1), lo, hi) != 1 {
		t.Fatal("in-window target must not be clipped")
	}
	// Empty window: nearest grid point to midpoint.
	mid := p.LevelResistance(5) + p.LevelSpacing()*0.3
	lvl := p.Grid().NearestLevelIn(p.RmaxFresh, mid, mid)
	if lvl != 5 && lvl != 6 {
		t.Fatalf("empty-window fallback level = %d", lvl)
	}
}

func TestUsableLevels(t *testing.T) {
	p := Params32()
	if got := p.Grid().UsableLevels(p.RminFresh, p.RmaxFresh); got != 32 {
		t.Fatalf("fresh usable levels = %d, want 32", got)
	}
	if got := p.Grid().UsableLevels(p.RminFresh, p.LevelResistance(2)); got != 3 {
		t.Fatalf("aged usable levels = %d, want 3", got)
	}
	if got := p.Grid().UsableLevels(p.RmaxFresh+1, p.RmaxFresh+2); got != 0 {
		t.Fatalf("out-of-grid window usable levels = %d, want 0", got)
	}
}

func TestPulseStressScalesWithConductance(t *testing.T) {
	p := Params32()
	// A pulse at RminFresh (max conductance) is the reference: 1.0.
	if math.Abs(p.Grid().PulseStress(p.RminFresh)-1) > 1e-12 {
		t.Fatalf("reference pulse stress = %g, want 1", p.Grid().PulseStress(p.RminFresh))
	}
	// A pulse at RmaxFresh costs Rmin/Rmax of that.
	want := p.RminFresh / p.RmaxFresh
	if math.Abs(p.Grid().PulseStress(p.RmaxFresh)-want) > 1e-12 {
		t.Fatalf("high-R pulse stress = %g, want %g", p.Grid().PulseStress(p.RmaxFresh), want)
	}
}

func TestUniformStressAblation(t *testing.T) {
	p := Params32()
	p.UniformStress = true
	want := math.Sqrt(p.RminFresh / p.RmaxFresh)
	for _, r := range []float64{p.RminFresh, (p.RminFresh + p.RmaxFresh) / 2, p.RmaxFresh} {
		if got := p.Grid().PulseStress(r); math.Abs(got-want) > 1e-12 {
			t.Fatalf("uniform stress at R=%g is %g, want conductance-independent %g", r, got, want)
		}
	}
}

func TestAddStressScalesWithAgingFactor(t *testing.T) {
	d := New(Params32().Grid(), 0)
	d.SetAgingFactor(2)
	d.AddStress(3)
	if d.Stress() != 6 {
		t.Fatalf("injected stress = %g, want 6 (scaled by aging factor)", d.Stress())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative stress injection")
		}
	}()
	d.AddStress(-1)
}

func TestPulseMovesConductanceByDelta(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.Program(p.LevelResistance(15), p.RminFresh, p.RmaxFresh)
	g0 := d.Conductance()
	s := d.Pulse(+1, p.RminFresh, p.RmaxFresh)
	if s <= 0 {
		t.Fatal("pulse must cost stress")
	}
	if math.Abs(d.Conductance()-g0-p.TunePulseDeltaG()) > 1e-12 {
		t.Fatalf("pulse moved g by %g, want %g", d.Conductance()-g0, p.TunePulseDeltaG())
	}
	d.Pulse(-1, p.RminFresh, p.RmaxFresh)
	if math.Abs(d.Conductance()-g0) > 1e-12 {
		t.Fatal("opposite pulses must cancel")
	}
	// Pinned at the window edge: pulse still costs stress, no movement.
	d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
	gEdge := d.Conductance()
	if s := d.Pulse(+1, p.RminFresh, p.RmaxFresh); s <= 0 {
		t.Fatal("pinned pulse still dissipates power")
	}
	if d.Conductance() != gEdge {
		t.Fatal("pinned device must not move past the window")
	}
	if d.Pulse(0, p.RminFresh, p.RmaxFresh) != 0 {
		t.Fatal("zero-direction pulse must be free")
	}
}

func TestNewDeviceStartsFreshAtHRS(t *testing.T) {
	d := New(Params32().Grid(), 0)
	if d.Resistance() != Params32().RmaxFresh {
		t.Fatalf("fresh device R = %g, want HRS %g", d.Resistance(), Params32().RmaxFresh)
	}
	if d.Stress() != 0 || d.Pulses() != 0 {
		t.Fatal("fresh device must have no history")
	}
	if math.Abs(d.Conductance()-1/d.Resistance()) > 1e-18 {
		t.Fatal("conductance must be 1/R")
	}
}

func TestProgramReachesTargetLevel(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	target := p.LevelResistance(10)
	res := d.Program(target, p.RminFresh, p.RmaxFresh)
	if res.Achieved != target {
		t.Fatalf("achieved %g, want %g", res.Achieved, target)
	}
	if res.Clipped {
		t.Fatal("in-range target must not be clipped")
	}
	if res.Pulses != p.Levels-1-10 {
		t.Fatalf("pulses = %d, want %d (one per level step)", res.Pulses, p.Levels-1-10)
	}
	if res.Stress <= 0 || d.Stress() != res.Stress {
		t.Fatalf("stress accounting wrong: res %g, device %g", res.Stress, d.Stress())
	}
}

func TestProgramSameLevelIsFree(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	res := d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
	if res.Pulses != 0 || res.Stress != 0 {
		t.Fatalf("programming the held level must be free, got %d pulses", res.Pulses)
	}
}

func TestProgramClipsToAgedWindow(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.Program(p.LevelResistance(0), p.RminFresh, p.RmaxFresh) // drive to LRS first
	agedHi := p.LevelResistance(5)
	res := d.Program(p.RmaxFresh, p.RminFresh, agedHi)
	if !res.Clipped {
		t.Fatal("target above aged window must report Clipped")
	}
	if res.Achieved != agedHi {
		t.Fatalf("clipped target achieved %g, want window top %g", res.Achieved, agedHi)
	}
}

func TestProgramStressMonotonicallyAccumulates(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	prev := 0.0
	targets := []int{0, 31, 0, 31, 15}
	for _, lvl := range targets {
		d.Program(p.LevelResistance(lvl), p.RminFresh, p.RmaxFresh)
		if d.Stress() < prev {
			t.Fatal("stress must never decrease (aging is irreversible)")
		}
		prev = d.Stress()
	}
	if prev == 0 {
		t.Fatal("programming across levels must accumulate stress")
	}
}

// TestLowConductanceProgrammingAgesLess is the package-level statement
// of the skewed-weight mechanism: cycling a device between
// high-resistance levels costs far less stress than cycling between
// low-resistance levels.
func TestLowConductanceProgrammingAgesLess(t *testing.T) {
	p := Params32()
	low := New(p.Grid(), 0)  // cycles in the high-R (low-g) half
	high := New(p.Grid(), 0) // cycles in the low-R (high-g) half
	for i := 0; i < 10; i++ {
		low.Program(p.LevelResistance(p.Levels-2), p.RminFresh, p.RmaxFresh)
		low.Program(p.LevelResistance(p.Levels-1), p.RminFresh, p.RmaxFresh)
		high.Program(p.LevelResistance(1), p.RminFresh, p.RmaxFresh)
		high.Program(p.LevelResistance(0), p.RminFresh, p.RmaxFresh)
	}
	if low.Stress()*3 > high.Stress() {
		t.Fatalf("high-R cycling stress %g must be well below low-R cycling stress %g", low.Stress(), high.Stress())
	}
}

func TestDriftStaysInWindowAndCorrectivePulse(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.Program(p.LevelResistance(10), p.RminFresh, p.RmaxFresh)
	d.Drift(1e12, p.RminFresh, p.RmaxFresh)
	if d.Resistance() != p.RmaxFresh {
		t.Fatalf("drift must clamp to window, got %g", d.Resistance())
	}
	d.Drift(-1e12, p.RminFresh, p.RmaxFresh)
	if d.Resistance() != p.RminFresh {
		t.Fatalf("drift must clamp to window, got %g", d.Resistance())
	}
	// Small drift off-grid then reprogram to the same level: needs
	// exactly one corrective pulse.
	d.Program(p.LevelResistance(10), p.RminFresh, p.RmaxFresh)
	d.Drift(p.LevelSpacing()*0.3, p.RminFresh, p.RmaxFresh)
	res := d.Program(p.LevelResistance(10), p.RminFresh, p.RmaxFresh)
	if res.Pulses != 1 {
		t.Fatalf("drift correction pulses = %d, want 1", res.Pulses)
	}
	if res.Achieved != p.LevelResistance(10) {
		t.Fatalf("drift correction achieved %g, want level 10", res.Achieved)
	}
}

func TestProgramInvertedWindowPanics(t *testing.T) {
	d := New(Params32().Grid(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inverted window")
		}
	}()
	d.Program(5e4, 9e4, 1e4)
}

// Property: after Program with any in-grid target and the fresh window,
// the achieved resistance is a grid level and lies within the window.
func TestProgramAlwaysLandsOnGridProperty(t *testing.T) {
	p := Params32()
	f := func(rawTarget float64, loLvl, hiLvl uint8) bool {
		lo := p.LevelResistance(int(loLvl) % p.Levels)
		hi := p.LevelResistance(int(hiLvl) % p.Levels)
		if lo > hi {
			lo, hi = hi, lo
		}
		target := p.RminFresh + math.Mod(math.Abs(rawTarget), p.RmaxFresh-p.RminFresh)
		d := New(p.Grid(), 0)
		res := d.Program(target, lo, hi)
		lvl := p.Grid().NearestLevel(res.Achieved)
		if math.Abs(p.LevelResistance(lvl)-res.Achieved) > 1e-6 {
			return false // not on grid
		}
		return res.Achieved >= lo-1e-6 && res.Achieved <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
