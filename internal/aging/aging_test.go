package aging

import (
	"math"
	"testing"
	"testing/quick"

	"memlife/internal/device"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{A: 0, B: 0, Ea: 0.6, M: 0.8, TrefK: 300},
		{A: 100, B: 200, Ea: 0.6, M: 0.8, TrefK: 300}, // B >= A
		{A: 100, B: 10, Ea: 0, M: 0.8, TrefK: 300},
		{A: 100, B: 10, Ea: 0.6, M: 0, TrefK: 300},
		{A: 100, B: 10, Ea: 0.6, M: 1.5, TrefK: 300},
		{A: 100, B: 10, Ea: 0.6, M: 0.8, TrefK: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: model %+v should be rejected", i, m)
		}
	}
}

func TestAccelNormalizedAtReference(t *testing.T) {
	m := DefaultModel()
	if math.Abs(m.Accel(m.TrefK)-1) > 1e-12 {
		t.Fatalf("Accel(Tref) = %g, want 1", m.Accel(m.TrefK))
	}
	if m.Accel(350) <= 1 {
		t.Fatal("higher temperature must accelerate aging")
	}
	if m.Accel(250) >= 1 {
		t.Fatal("lower temperature must decelerate aging")
	}
	// Arrhenius ratio check: ln(accel) linear in 1/T.
	lnA := math.Log(m.Accel(350))
	want := m.Ea / BoltzmannEV * (1/300.0 - 1/350.0)
	if math.Abs(lnA-want) > 1e-9 {
		t.Fatalf("Arrhenius form violated: ln(accel)=%g, want %g", lnA, want)
	}
}

func TestZeroStressNoAging(t *testing.T) {
	m := DefaultModel()
	p := device.Params32()
	lo, hi := m.Bounds(p, 0, 300)
	if lo != p.RminFresh || hi != p.RmaxFresh {
		t.Fatalf("fresh bounds = [%g, %g], want [%g, %g]", lo, hi, p.RminFresh, p.RmaxFresh)
	}
}

func TestBothBoundsDecrease(t *testing.T) {
	// Fig. 4: both the upper and the lower bound decrease with t.
	m := DefaultModel()
	p := device.Params32()
	lo, hi := m.Bounds(p, 50, 300)
	if hi >= p.RmaxFresh {
		t.Fatal("upper bound must decrease with stress")
	}
	if lo >= p.RminFresh {
		t.Fatal("lower bound must decrease with stress")
	}
	if hi-lo >= p.RmaxFresh-p.RminFresh {
		t.Fatal("range must shrink (A > B)")
	}
}

func TestUsableLevelCountDecays(t *testing.T) {
	// The level-count decay of Fig. 4 (8 levels fresh, 3 after aging),
	// scaled to the 32-level device.
	m := DefaultModel()
	p := device.Params32()
	prev := p.Levels
	for _, stress := range []float64{0, 5, 20, 80, 320} {
		lo, hi := m.Bounds(p, stress, 300)
		n := p.Grid().UsableLevels(lo, hi)
		if n > prev {
			t.Fatalf("usable levels increased with stress: %d -> %d at stress %g", prev, n, stress)
		}
		prev = n
	}
	if prev >= p.Levels {
		t.Fatal("heavy stress must remove levels")
	}
	// A fully worn device slides below the fresh grid entirely: zero
	// usable levels is the end-of-life state.
	lo, hi := m.Bounds(p, 1e6, 300)
	if p.Grid().UsableLevels(lo, hi) != 0 {
		t.Fatal("extreme stress must leave no usable levels")
	}
}

func TestLossesMonotoneInStressAndTemperature(t *testing.T) {
	m := DefaultModel()
	f := func(s1, s2 float64) bool {
		a := math.Abs(s1)
		b := math.Abs(s2)
		if a > b {
			a, b = b, a
		}
		return m.UpperLoss(a, 300) <= m.UpperLoss(b, 300) &&
			m.LowerLoss(a, 300) <= m.LowerLoss(b, 300)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if m.UpperLoss(10, 350) <= m.UpperLoss(10, 300) {
		t.Fatal("hotter devices must lose more range")
	}
}

func TestUpperAgesFasterThanLower(t *testing.T) {
	m := DefaultModel()
	for _, s := range []float64{1, 10, 100} {
		if m.UpperLoss(s, 300) <= m.LowerLoss(s, 300) {
			t.Fatalf("at stress %g upper loss %g must exceed lower loss %g", s, m.UpperLoss(s, 300), m.LowerLoss(s, 300))
		}
	}
}

func TestWindowNeverInverts(t *testing.T) {
	m := DefaultModel()
	p := device.Params32()
	for _, s := range []float64{1e3, 1e6, 1e9} {
		lo, hi := m.Bounds(p, s, 400)
		if hi < lo {
			t.Fatalf("window inverted at stress %g: [%g, %g]", s, lo, hi)
		}
		if hi-lo < p.LevelSpacing()*0.999 {
			t.Fatalf("window floor violated at stress %g: width %g", s, hi-lo)
		}
	}
}

func TestCalibrationHalfRangeAt100Pulses(t *testing.T) {
	// DESIGN.md calibration: ~half of the Params32 range gone after
	// ~100 reference pulses at 300 K.
	m := DefaultModel()
	p := device.Params32()
	loss := m.UpperLoss(100, 300)
	halfRange := (p.RmaxFresh - p.RminFresh) / 2
	if loss < 0.5*halfRange || loss > 2*halfRange {
		t.Fatalf("calibration drifted: loss at 100 pulses = %g, want within 2x of %g", loss, halfRange)
	}
}

func TestNegativeStressPanics(t *testing.T) {
	m := DefaultModel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative stress")
		}
	}()
	m.UpperLoss(-1, 300)
}
