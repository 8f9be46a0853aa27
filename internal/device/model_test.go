package device

import (
	"math"
	"testing"
)

// modelKinds enumerates every selectable pulse-response model, with
// variation sigmas turned on so the stochastic paths are exercised.
var modelKinds = []ModelSpec{
	{},
	{Kind: ModelLinear, D2D: 0.1, C2C: 0.05},
	{Kind: ModelMMS},
	{Kind: ModelMMS, D2D: 0.1, C2C: 0.05},
	{Kind: ModelYacopcic},
	{Kind: ModelYacopcic, D2D: 0.1, C2C: 0.05},
	{Kind: ModelDiffusive, D2D: 0.1, C2C: 0.05},
}

// testDraws is a small deterministic grid of (d2d, c2c) standard-normal
// values covering the +-3 sigma range.
var testDraws = []float64{-3, -1, -0.2, 0, 0.4, 1.5, 3}

// TestModelLinearDefaultBitIdentical pins the refactoring contract: the
// default (zero-spec) model must reproduce the historical arithmetic
// g + sign(dir)*TunePulseDeltaG exactly, bit for bit.
func TestModelLinearDefaultBitIdentical(t *testing.T) {
	for _, p := range []Params{Params32(), Params64()} {
		m := p.ResolveModel()
		g := p.Grid()
		for _, gv := range []float64{p.GminFresh(), (p.GminFresh() + p.GmaxFresh()) / 2, p.GmaxFresh(), 1.23e-5} {
			for _, dir := range []int{-3, -1, 1, 7} {
				want := gv + float64(sign(dir))*g.TunePulseDeltaG()
				if got := m.StepG(gv, dir, 0, 0); got != want {
					t.Fatalf("StepG(%g, %d) = %g, want the historical %g", gv, dir, got, want)
				}
			}
		}
	}
}

// TestModelBounds: every model maps any in-window conductance to an
// in-window conductance, for every pulse direction and any +-3 sigma
// variation draw. The linear model is exempt at the model layer (the
// historical contract clamps in Device.Pulse against the *aged* bounds,
// which the model cannot know); every other model must self-clamp.
func TestModelBounds(t *testing.T) {
	for _, spec := range modelKinds {
		if spec.Kind == "" || spec.Kind == ModelLinear {
			continue
		}
		p := Params32()
		p.Model = spec
		m := p.ResolveModel()
		gMin, gMax := p.GminFresh(), p.GmaxFresh()
		for _, x := range []float64{0, 1e-6, 0.2, 0.5, 0.8, 1 - 1e-6, 1} {
			g := gMin + x*(gMax-gMin)
			for _, dir := range []int{1, -1} {
				for _, zd := range testDraws {
					for _, zc := range testDraws {
						got := m.StepG(g, dir, zd, zc)
						if !(got >= gMin && got <= gMax) {
							t.Fatalf("%s: StepG(%g, %d, %g, %g) = %g escaped [%g, %g]",
								spec.Kind, g, dir, zd, zc, got, gMin, gMax)
						}
					}
				}
			}
		}
	}
}

// TestModelMonotoneDirection: a positive pulse never yields a lower
// conductance than a negative pulse from the same state under the same
// draws, and — for models without spontaneous relaxation — a positive
// pulse never lowers the conductance and a negative one never raises
// it. The diffusive model's built-in relaxation makes its steps only
// relatively monotone (up >= down), which is exactly what the first
// assertion pins.
func TestModelMonotoneDirection(t *testing.T) {
	for _, spec := range modelKinds {
		p := Params32()
		p.Model = spec
		m := p.ResolveModel()
		gMin, gMax := p.GminFresh(), p.GmaxFresh()
		for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
			g := gMin + x*(gMax-gMin)
			for _, zd := range testDraws {
				for _, zc := range testDraws {
					up := m.StepG(g, 1, zd, zc)
					down := m.StepG(g, -1, zd, zc)
					if up < down {
						t.Fatalf("%s: up %g < down %g at g=%g (zd=%g zc=%g)", spec.Kind, up, down, g, zd, zc)
					}
					if spec.Kind == ModelDiffusive {
						continue // relaxation is allowed to dominate a pulse
					}
					if up < g || down > g {
						t.Fatalf("%s: direction not monotone at g=%g: up %g, down %g (zd=%g zc=%g)",
							spec.Kind, g, up, down, zd, zc)
					}
				}
			}
		}
	}
}

// TestModelThresholdSaturation pins the qualitative physics that
// distinguish the nonlinear models from the linear one: their upward
// steps shrink near the LRS rail (state-dependent saturation), while
// the linear step is state-independent.
func TestModelThresholdSaturation(t *testing.T) {
	for _, kind := range []string{ModelMMS, ModelYacopcic} {
		p := Params32()
		p.Model = ModelSpec{Kind: kind}
		m := p.ResolveModel()
		gMin, gMax := p.GminFresh(), p.GmaxFresh()
		mid := gMin + 0.5*(gMax-gMin)
		hi := gMin + 0.95*(gMax-gMin)
		dMid := m.StepG(mid, 1, 0, 0) - mid
		dHi := m.StepG(hi, 1, 0, 0) - hi
		if !(dMid > 0) {
			t.Fatalf("%s: mid-range positive pulse must move the state, got %g", kind, dMid)
		}
		if !(dHi < dMid) {
			t.Fatalf("%s: step must saturate near the rail: mid %g, near-rail %g", kind, dMid, dHi)
		}
	}
}

// TestDeviceNoiseDeterminism: the per-pulse C2C draw is a pure function
// of the device's noise seed and lifetime pulse counter, so two devices
// seeded alike replay identical stochastic trajectories pulse for
// pulse, and reseeding resets the stream only together with the pulse
// counter (the counter keys the draw).
func TestDeviceNoiseDeterminism(t *testing.T) {
	p := Params32()
	p.Model = ModelSpec{Kind: ModelDiffusive, D2D: 0.1, C2C: 0.08}
	lo, hi := p.RminFresh, p.RmaxFresh
	dirs := []int{1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1, -1}

	trajectory := func(seed uint64) []float64 {
		d := New(p)
		d.SeedNoise(seed)
		out := make([]float64, 0, len(dirs))
		for _, dir := range dirs {
			d.Pulse(dir, lo, hi)
			out = append(out, d.Resistance())
		}
		return out
	}

	a, b := trajectory(42), trajectory(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pulse %d: identically seeded devices diverged: %g vs %g", i, a[i], b[i])
		}
	}
	c := trajectory(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different noise seeds produced identical stochastic trajectories")
	}
	// Sanity: the stochastic trajectory actually varies step to step
	// (the variation path is live, not collapsing to the linear step).
	varied := false
	for i := 2; i < len(a); i++ {
		d1 := math.Abs(a[i] - a[i-1])
		d2 := math.Abs(a[i-1] - a[i-2])
		if d1 > 0 && d2 > 0 && d1 != d2 {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("C2C variation produced constant step sizes")
	}
}

// TestStochasticPulseZeroAlloc pins the full stochastic pulse path —
// stress accrual, the counter-based C2C draw, the diffusive StepG and
// the window clamp — at zero heap allocations per pulse: the tuning hot
// loop dispatches through the Model interface millions of times per
// simulated cycle.
func TestStochasticPulseZeroAlloc(t *testing.T) {
	p := Params32()
	p.Model = ModelSpec{Kind: ModelDiffusive, D2D: 0.05, C2C: 0.02}
	d := New(p)
	d.SeedNoise(42)
	lo, hi := p.RminFresh, p.RmaxFresh
	dir := 1
	pulse := func() {
		d.Pulse(dir, lo, hi)
		dir = -dir
	}
	if n := testing.AllocsPerRun(1000, pulse); n != 0 {
		t.Fatalf("diffusive Pulse: %v allocs/op, want 0", n)
	}
}

// TestModelCacheIdentity: models are shared per Params value, like
// grids, so the tuning hot loop never allocates per device.
func TestModelCacheIdentity(t *testing.T) {
	p := Params32()
	p.Model = ModelSpec{Kind: ModelYacopcic}
	if p.ResolveModel() != p.ResolveModel() {
		t.Fatal("ResolveModel must return the cached instance per Params value")
	}
	q := p
	q.Model.Kind = ModelMMS
	if p.ResolveModel() == q.ResolveModel() {
		t.Fatal("different model kinds must resolve to different models")
	}
}

// TestModelSpecValidation rejects unknown kinds and degenerate sigmas
// through Params.Validate (the spec-layer entry point).
func TestModelSpecValidation(t *testing.T) {
	bad := []Params{}
	for _, mut := range []func(*Params){
		func(p *Params) { p.Model.Kind = "memristor9000" },
		func(p *Params) { p.Model.D2D = -0.1 },
		func(p *Params) { p.Model.C2C = math.Inf(1) },
		func(p *Params) { p.Drift.Nu = -1 },
		func(p *Params) { p.Drift.Nu = math.NaN() },
	} {
		p := Params32()
		mut(&p)
		bad = append(bad, p)
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid model/drift spec accepted: %+v %+v", i, p.Model, p.Drift)
		}
	}
}

// TestDriftDecayFactor pins the power-law interval decay: factors are
// in (0,1] for enabled drift, 1 when disabled, and their running
// product over cycles 1..k telescopes to (k+1)^-Nu.
func TestDriftDecayFactor(t *testing.T) {
	var off DriftSpec
	if off.Enabled() || off.DecayFactor(5) != 1 {
		t.Fatal("zero drift spec must be disabled with factor 1")
	}
	d := DriftSpec{Nu: 0.1}
	prod := 1.0
	for c := 1; c <= 20; c++ {
		f := d.DecayFactor(c)
		if !(f > 0 && f < 1) {
			t.Fatalf("cycle %d: factor %g outside (0,1)", c, f)
		}
		prod *= f
	}
	want := math.Pow(21, -0.1)
	if math.Abs(prod-want) > 1e-12 {
		t.Fatalf("telescoped decay %g, want %g", prod, want)
	}
}
