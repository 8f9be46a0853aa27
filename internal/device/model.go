package device

import (
	"fmt"
	"math"
	"sync"
)

// Model kind labels, the values of ModelSpec.Kind. The empty string
// selects the linear model (the historical behavior), so specs written
// before the model zoo existed resolve — and fingerprint — unchanged.
const (
	ModelLinear    = "linear"
	ModelMMS       = "mms"
	ModelYacopcic  = "yacopcic"
	ModelDiffusive = "diffusive"
)

// ModelSpec is the "device.model" block of a scenario spec: which pulse-
// response physics the devices follow, plus the variation magnitudes of
// the stochastic models. The zero value (empty kind, no variation) is
// the linear model and is omitted from serialization entirely, so specs
// predating the model zoo keep their historical fingerprints.
type ModelSpec struct {
	// Kind names the pulse-response model: "linear" (or empty), "mms",
	// "yacopcic", or "diffusive".
	Kind string `json:"kind,omitempty"`
	// D2D is the device-to-device variation sigma: every device draws
	// one fixed standard-normal factor at array construction and scales
	// its pulse response by exp(D2D * draw). Zero disables it.
	D2D float64 `json:"d2d,omitempty"`
	// C2C is the cycle-to-cycle variation sigma: every pulse draws a
	// fresh deterministic standard-normal factor (a pure function of
	// the device's noise seed and its lifetime pulse counter, so draws
	// are identical for every evaluation worker count) and scales the
	// pulse response by exp(C2C * draw). Zero disables it.
	C2C float64 `json:"c2c,omitempty"`
}

// validate reports an error for unknown kinds or meaningless sigmas.
func (m ModelSpec) validate() error {
	switch m.Kind {
	case "", ModelLinear, ModelMMS, ModelYacopcic, ModelDiffusive:
	default:
		return fmt.Errorf("device: unknown model kind %q (want %q, %q, %q, or %q)",
			m.Kind, ModelLinear, ModelMMS, ModelYacopcic, ModelDiffusive)
	}
	if m.D2D < 0 || math.IsNaN(m.D2D) || math.IsInf(m.D2D, 0) {
		return fmt.Errorf("device: model d2d sigma must be a non-negative finite value, got %g", m.D2D)
	}
	if m.C2C < 0 || math.IsNaN(m.C2C) || math.IsInf(m.C2C, 0) {
		return fmt.Errorf("device: model c2c sigma must be a non-negative finite value, got %g", m.C2C)
	}
	return nil
}

// DriftSpec is the "device.drift" block of a scenario spec: a
// spontaneous conductance state-drift process, independent of
// programming. Conductance decays toward the device's minimum following
// the power law G(t) = Gmin + (G0-Gmin) * (t/t0)^-Nu — the retention
// behavior drift-compensation schemes like AIDX (arXiv 2009.00180)
// target with periodic scale recalibration instead of reprogramming.
// The zero value disables drift and is omitted from serialization, so
// old specs keep their fingerprints.
type DriftSpec struct {
	// Nu is the power-law drift exponent; zero disables state drift.
	Nu float64 `json:"nu,omitempty"`
}

// validate reports an error for meaningless exponents.
func (d DriftSpec) validate() error {
	if d.Nu < 0 || math.IsNaN(d.Nu) || math.IsInf(d.Nu, 0) {
		return fmt.Errorf("device: drift exponent nu must be a non-negative finite value, got %g", d.Nu)
	}
	return nil
}

// Enabled reports whether the spec describes an active drift process.
func (d DriftSpec) Enabled() bool { return d.Nu > 0 }

// DecayFactor returns the multiplicative decay of the conductance
// excursion (G - Gmin) over the interval [cycle, cycle+1] of the power
// law, with t measured in deployment cycles (t0 = 1): ((k+1)/k)^-Nu.
func (d DriftSpec) DecayFactor(cycle int) float64 {
	if !d.Enabled() || cycle < 1 {
		return 1
	}
	return math.Pow(float64(cycle+1)/float64(cycle), -d.Nu)
}

// Model is the device-physics contract behind every Device: how one
// tuning pulse moves the conductance. Everything the models share —
// the fresh conductance window, the pulse stress, the quantization
// grid and the variation sigmas — lives on Params and Grid.
//
// Implementations are immutable and shared by every device of an array
// (one instance per Params value, cached like Grid); per-device
// mutable state stays inside Device, so StepG is a pure function and
// allocation-free — the tuning hot loop dispatches through this
// interface millions of times per simulated cycle
// (TestStochasticPulseZeroAlloc pins the whole path at 0 allocs/op).
type Model interface {
	// StepG returns the conductance after one tuning pulse in
	// direction dir (> 0 raises conductance, < 0 lowers it) applied at
	// conductance g. d2d is the device's fixed device-to-device
	// standard-normal draw and c2c the pulse's cycle-to-cycle draw;
	// both are zero when the corresponding ModelSpec sigma is zero,
	// and deterministic models ignore them.
	StepG(g float64, dir int, d2d, c2c float64) float64
}

// modelCache holds one Model per Params value ever requested, like
// gridCache (Params is small and comparable).
var modelCache sync.Map // Params -> Model

// ResolveModel returns the shared pulse-response model for this
// technology, building it on first use. p must be valid (it panics on
// invalid Params, like New and Grid).
func (p Params) ResolveModel() Model {
	if m, ok := modelCache.Load(p); ok {
		return m.(Model)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := p.Grid()
	var m Model
	switch p.Model.Kind {
	case "", ModelLinear:
		m = &LinearModel{g: g, spec: p.Model}
	case ModelMMS:
		m = newMMSModel(p)
	case ModelYacopcic:
		m = newYacopcicModel(p)
	case ModelDiffusive:
		m = newDiffusiveModel(p, g)
	default:
		panic(fmt.Sprintf("device: unknown model kind %q", p.Model.Kind))
	}
	actual, _ := modelCache.LoadOrStore(p, m)
	return actual.(Model)
}

// LinearModel is the paper's device: constant conductance steps of
// TunePulseDeltaG per tuning pulse (eq. (5)) and stress proportional to
// the dissipated programming power (Section II-B). Every method
// delegates to the shared Grid constants with the exact arithmetic
// associations of the historical Device code, so the default simulation
// path is bit-identical to the pre-zoo implementation (the PR-5 golden
// suite and PR-8 oracle suite pin this).
type LinearModel struct {
	g    *Grid
	spec ModelSpec
}

// StepG implements Model: a constant conductance nudge, scaled by the
// lognormal variation factor only when variation is configured (the
// default path performs exactly the historical g + sign*deltaG).
func (m *LinearModel) StepG(g float64, dir int, d2d, c2c float64) float64 {
	if d2d == 0 && c2c == 0 {
		return g + float64(sign(dir))*m.g.TunePulseDeltaG()
	}
	return g + float64(sign(dir))*m.g.TunePulseDeltaG()*variationScale(m.spec, d2d, c2c)
}

// variationScale is the shared lognormal pulse-magnitude factor of the
// stochastic paths: exp(sigmaD2D*zD2D + sigmaC2C*zC2C).
func variationScale(spec ModelSpec, d2d, c2c float64) float64 {
	e := spec.D2D*d2d + spec.C2C*c2c
	if e == 0 {
		return 1
	}
	return math.Exp(e)
}

// normState converts a conductance to the normalized state variable
// x in [0, 1] shared by the threshold models: x = 0 at gMin (HRS),
// x = 1 at gMax (LRS).
func normState(g, gMin, gMax float64) float64 {
	x := (g - gMin) / (gMax - gMin)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// stateG is the inverse of normState.
func stateG(x, gMin, gMax float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return gMin + x*(gMax-gMin)
}

// MMSModel is the metastable-switch memristor (SNIPPETS.md snippet 3,
// after Molter & Nugent): a two-state ensemble whose fraction x of
// on-state switches follows mean-field switching probabilities
//
//	P_on  = alpha / (1 + exp(-beta (u - Uon)))          (u = +Vprog)
//	P_off = alpha (1 - 1 / (1 + exp(-beta (u + Uoff)))) (u = -Vprog)
//	dx    = P_on (1 - x)   or   -P_off x
//
// with alpha = PulseWidth/tau and beta = q/kT. The conductance is the
// parallel combination W = x Gon + (1-x) Goff, i.e. x is exactly the
// normalized state over the technology's fresh window. tau is derived
// from the level count (tau = 2*Levels*PulseWidth) so a mid-range pulse
// moves about one tuning step — the different physics show up as
// state-proportional saturation (large steps mid-range, vanishing steps
// at the rails), not as a different overall tuning rate.
type MMSModel struct {
	spec       ModelSpec
	gMin, gMax float64
	pOn, pOff  float64 // the saturated switching probabilities at ±Vprog
}

func newMMSModel(p Params) *MMSModel {
	// Boltzmann slope at room temperature (the snippet's T = 298.5 K).
	const beta = 1.602176634e-19 / (1.380649e-23 * 298.5)
	const uOn, uOff = 0.27, 0.27
	alpha := 1 / float64(2*p.Levels) // PulseWidth / tau, tau = 2*Levels*PulseWidth
	return &MMSModel{
		spec: p.Model,
		gMin: p.GminFresh(), gMax: p.GmaxFresh(),
		pOn:  alpha / (1 + math.Exp(-beta*(p.Vprog-uOn))),
		pOff: alpha * (1 - 1/(1+math.Exp(-beta*(-p.Vprog+uOff)))),
	}
}

// StepG implements Model: the mean-field metastable-switch update on
// the normalized state.
func (m *MMSModel) StepG(g float64, dir int, d2d, c2c float64) float64 {
	x := normState(g, m.gMin, m.gMax)
	var dx float64
	if sign(dir) > 0 {
		dx = m.pOn * (1 - x)
	} else {
		dx = -m.pOff * x
	}
	dx *= variationScale(m.spec, d2d, c2c)
	return stateG(x+dx, m.gMin, m.gMax)
}

// YacopcicModel is the threshold voltage-controlled model (SNIPPETS.md
// snippet 3, after Yacopcic et al.): pulses below the programming
// thresholds Up/Un do nothing, above them the state moves by
//
//	dx = eta_p g(u) f_p(x)   (u = +Vprog)
//	dx = -eta_n g(u) f_n(x)  (u = -Vprog)
//
// with the exponential threshold drive g(u) = Ap (e^u - e^Up) and the
// asymmetric window functions
//
//	f_p(x) = e^{-alpha_p (x - xp)} wp(x), x >= xp (else 1), wp = (xp-x)/(1-xp) + 1
//	f_n(x) = e^{ alpha_n (x + xn - 1)} wn(x), x <= 1-xn (else 1), wn = x/(1-xn)
//
// The drive magnitudes are normalized so an unwindowed pulse moves
// 1/(2*Levels) of the state range, making lifetimes comparable across
// models; the Yacopcic character is the hard threshold plus the
// strongly asymmetric window decay (alpha_n > alpha_p) near the rails.
type YacopcicModel struct {
	spec           ModelSpec
	gMin, gMax     float64
	stepP, stepN   float64 // eta * g(±Vprog), normalized drive per pulse
	alphaP, alphaN float64
	xp, xn         float64
}

func newYacopcicModel(p Params) *YacopcicModel {
	// Snippet constants: Ap = An = 4000, Up = Un = 0.5 V, alpha_p = 1,
	// alpha_n = 5, xp = xn = 0.3.
	const ap, an = 4000.0, 4000.0
	const up, un = 0.5, 0.5
	m := &YacopcicModel{
		spec: p.Model,
		gMin: p.GminFresh(), gMax: p.GmaxFresh(),
		alphaP: 1, alphaN: 5,
		xp: 0.3, xn: 0.3,
	}
	norm := 1 / float64(2*p.Levels)
	// Threshold drive at the programming amplitude; a technology whose
	// Vprog sits below the threshold cannot tune at all (stepP = 0).
	driveP := 0.0
	if p.Vprog > up {
		driveP = ap * (math.Exp(p.Vprog) - math.Exp(up))
	}
	driveN := 0.0
	if p.Vprog > un {
		driveN = an * (math.Exp(p.Vprog) - math.Exp(un))
	}
	ref := ap * (math.Exp(p.Vprog) - math.Exp(up))
	if ref <= 0 {
		ref = 1
	}
	m.stepP = norm * driveP / ref
	m.stepN = norm * driveN / ref
	return m
}

// StepG implements Model: the windowed threshold update.
func (m *YacopcicModel) StepG(g float64, dir int, d2d, c2c float64) float64 {
	x := normState(g, m.gMin, m.gMax)
	var dx float64
	if sign(dir) > 0 {
		f := 1.0
		if x >= m.xp {
			f = math.Exp(-m.alphaP*(x-m.xp)) * ((m.xp-x)/(1-m.xp) + 1)
		}
		dx = m.stepP * f
	} else {
		f := 1.0
		if x <= 1-m.xn {
			f = math.Exp(m.alphaN*(x+m.xn-1)) * (x / (1 - m.xn))
		}
		dx = -m.stepN * f
	}
	dx *= variationScale(m.spec, d2d, c2c)
	return stateG(x+dx, m.gMin, m.gMax)
}

// DiffusiveModel is the stochastic diffusive memristor (SNIPPETS.md
// snippets 1-2): filament growth is a noisy process, so each pulse's
// conductance step carries a lognormal magnitude — a fixed per-device
// factor exp(D2D * z_dev) (device-to-device parameter scatter) times a
// fresh per-pulse factor exp(C2C * z_pulse) (cycle-to-cycle switching
// noise) — and the Ag filament spontaneously relaxes toward rupture: a
// small fraction lambda of the conductance excursion above gMin decays
// on every pulse, giving the model a built-in volatility floor on top
// of the scenario-level power-law state drift (DriftSpec).
type DiffusiveModel struct {
	spec       ModelSpec
	gMin, gMax float64
	step       float64
	lambda     float64
}

func newDiffusiveModel(p Params, g *Grid) *DiffusiveModel {
	return &DiffusiveModel{
		spec: p.Model,
		gMin: p.GminFresh(), gMax: p.GmaxFresh(),
		step:   g.TunePulseDeltaG(),
		lambda: 0.01,
	}
}

// StepG implements Model: a lognormally scaled conductance nudge plus
// filament relaxation.
func (m *DiffusiveModel) StepG(g float64, dir int, d2d, c2c float64) float64 {
	next := g + float64(sign(dir))*m.step*variationScale(m.spec, d2d, c2c)
	// Spontaneous relaxation toward the ruptured (gMin) state.
	next = m.gMin + (next-m.gMin)*(1-m.lambda)
	if next < m.gMin {
		next = m.gMin
	}
	if next > m.gMax {
		next = m.gMax
	}
	return next
}
