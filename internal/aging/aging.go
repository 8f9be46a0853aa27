// Package aging implements the paper's aging model for memristor
// resistance ranges (Section III, eq. (6)/(7)):
//
//	R_aged,max = R_fresh,max - f(T, t)
//	R_aged,min = R_fresh,min - g(T, t)
//
// where t is the accumulated programming history and T the operating
// temperature. Both aging functions are Arrhenius-accelerated power
// laws, the standard quantitative endurance-failure form for
// filamentary RRAM ([17], [18]): loss = A * exp(Ea/k * (1/Tref - 1/T))
// * t^M. The upper bound degrades faster than the lower bound
// (A > B), so the usable range shrinks from the top — the common
// scenario of Fig. 4 where level count decays from 8 to 3.
//
// The history variable t is the normalized programming stress
// accumulated by device.Device: each pulse contributes energy
// proportional to the programming power V^2*g, so low-conductance
// (skewed-weight) operation slows this clock down.
package aging

import (
	"fmt"
	"math"

	"memlife/internal/device"
)

// BoltzmannEV is the Boltzmann constant in eV/K.
const BoltzmannEV = 8.617333262e-5

// Model holds the aging-function parameters. The defaults returned by
// DefaultModel stand in for the measurement-extracted constants the
// paper references; see DESIGN.md for the calibration rationale.
type Model struct {
	// A scales the upper-bound loss f(T,t) in Ohms per stress^M.
	A float64 `json:"a"`
	// B scales the lower-bound loss g(T,t) in Ohms per stress^M.
	// B < A so the range shrinks as it slides down.
	B float64 `json:"b"`
	// Ea is the activation energy in eV.
	Ea float64 `json:"ea"`
	// M is the sub-linear stress exponent of the power law.
	M float64 `json:"m"`
	// TrefK is the reference temperature (K) at which acceleration is 1.
	TrefK float64 `json:"tref_k"`
}

// DefaultModel returns the calibration used throughout the experiments:
// roughly half of a Params32 device range is lost after ~100 reference
// (full-current) programming pulses at 300 K.
func DefaultModel() Model {
	return Model{A: 1200, B: 200, Ea: 0.6, M: 0.8, TrefK: 300}
}

// Validate reports an error for non-physical parameters.
func (m Model) Validate() error {
	switch {
	case m.A <= 0 || m.B < 0:
		return fmt.Errorf("aging: need A > 0 and B >= 0, got A=%g B=%g", m.A, m.B)
	case m.B >= m.A:
		return fmt.Errorf("aging: upper bound must age faster than lower (A > B), got A=%g B=%g", m.A, m.B)
	case m.Ea <= 0:
		return fmt.Errorf("aging: activation energy must be positive, got %g", m.Ea)
	case m.M <= 0 || m.M > 1:
		return fmt.Errorf("aging: stress exponent must be in (0,1], got %g", m.M)
	case m.TrefK <= 0:
		return fmt.Errorf("aging: reference temperature must be positive, got %g", m.TrefK)
	}
	return nil
}

// Accel returns the Arrhenius acceleration factor at temperature tK,
// normalized to 1 at TrefK. Higher temperatures age faster.
func (m Model) Accel(tK float64) float64 {
	if tK <= 0 {
		panic(fmt.Sprintf("aging: non-positive temperature %g K", tK))
	}
	return math.Exp(m.Ea / BoltzmannEV * (1/m.TrefK - 1/tK))
}

// Bounds returns the aged resistance window [lo, hi] of a device with
// the given technology parameters and accumulated stress at temperature
// tK (eq. (6)/(7)); see Evaluator.Bounds, its one implementation.
func (m Model) Bounds(p device.Params, stress, tK float64) (lo, hi float64) {
	return m.Evaluator(p, tK).Bounds(stress)
}

// Evaluator is a Model bound to one technology and temperature with
// every stress-independent term precomputed: the Arrhenius acceleration
// (one exp), the fresh bounds, and the floors. Bounds then costs one
// math.Pow per stress value — the dominant cost of per-device
// aged-bounds evaluation in mapping and drift loops. It is the one
// implementation of the eq. (6)/(7) window; the losses associate as
// the direct formula A*Accel(tK)*t^M does ((A*accel)*pow, Go's
// left-to-right evaluation), which the package tests pin bit for bit.
type Evaluator struct {
	aAccel, bAccel float64 // A*Accel(tK), B*Accel(tK)
	m              float64
	rmaxFresh      float64
	rminFresh      float64
	loFloor        float64 // 0.05 * RminFresh
	spacing        float64 // one level spacing, the minimum window width
}

// Evaluator precomputes the stress-independent parts of Bounds for the
// given technology and temperature. It panics on non-positive tK, like
// Accel.
func (m Model) Evaluator(p device.Params, tK float64) Evaluator {
	accel := m.Accel(tK)
	return Evaluator{
		aAccel:    m.A * accel,
		bAccel:    m.B * accel,
		m:         m.M,
		rmaxFresh: p.RmaxFresh,
		rminFresh: p.RminFresh,
		loFloor:   0.05 * p.RminFresh,
		spacing:   p.LevelSpacing(),
	}
}

// Bounds returns the aged window [lo, hi] for the given accumulated
// stress. Two physical floors apply: the lower bound never drops below
// a small positive fraction of the fresh LRS (a resistor cannot reach
// zero or negative resistance — a fully worn device pins near a
// short), and the window never collapses below one level spacing, so a
// dead device holds one state rather than inverting. It panics on
// negative stress.
func (e Evaluator) Bounds(stress float64) (lo, hi float64) {
	if stress < 0 {
		panic(fmt.Sprintf("aging: negative stress %g", stress))
	}
	hi = e.rmaxFresh
	lo = e.rminFresh
	if stress != 0 {
		pw := math.Pow(stress, e.m)
		hi -= e.aAccel * pw
		lo -= e.bAccel * pw
	}
	if lo < e.loFloor {
		lo = e.loFloor
	}
	if hi < lo+e.spacing {
		hi = lo + e.spacing
	}
	return lo, hi
}
