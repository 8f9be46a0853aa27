package crossbar

import (
	"fmt"
	"math"

	"memlife/internal/tensor"
)

// The zero-allocation hot path.
//
// Steady-state simulation spends its crossbar time in four loops:
// programming (MapWeights), tuning pulses (StepDevices), readback
// (ReadWeightsInto, feeding nn.Network.Forward through
// MappedNetwork.Refresh), and candidate-range scoring
// (QuantizeWeightsInto). This file holds the machinery that makes those
// loops allocation-free and cheap without changing a single output bit:
//
//   - an aged-bounds memo: eq. (6)/(7) is a pure function of a device's
//     accumulated stress (given params, model, temperature), so each
//     device's window is cached keyed by the exact stress value it was
//     computed at, over an aging.Evaluator that hoists the Arrhenius
//     exp out of the loop. An entry is reused only while the device's
//     stress still equals its key, so a device whose stress moved (a
//     pulse, burn-in, or a caller programming it through Device) is
//     recomputed on its next lookup.
//   - mapConv: the eq. (4) weight<->resistance affine transform with
//     its range constants precomputed once per mapping pass, in the
//     exact association of TargetResistance and of the test oracle
//     EffectiveWeight.
//   - QuantizeWeightsInto writing into a caller-owned buffer (see
//     DESIGN.md "Scratch arenas & buffer ownership").
//   - StepDevices: applies a whole pulse list (with per-step
//     transient-failure retries) in one call, flushing telemetry once.

// agedBoundsIdx returns the aged window of device idx (row-major)
// through the memo. Bit-identical to model.Bounds(params, stress,
// tempK) for every call.
func (c *Crossbar) agedBoundsIdx(idx int) (lo, hi float64) {
	if c.bStress == nil {
		n := len(c.devices)
		c.bStress = make([]float64, n)
		c.bLo = make([]float64, n)
		c.bHi = make([]float64, n)
		for i := range c.bStress {
			c.bStress[i] = math.NaN() // equals no stress value: never computed
		}
	}
	s := c.devices[idx].Stress()
	if c.bStress[idx] == s {
		return c.bLo[idx], c.bHi[idx]
	}
	lo, hi = c.bEval.Bounds(s)
	c.bStress[idx], c.bLo[idx], c.bHi[idx] = s, lo, hi
	return lo, hi
}

// mapConv is eq. (4) with the range constants of one mapping pass
// precomputed. target reproduces TargetResistance bit-for-bit, and eff
// the test oracle EffectiveWeight: the hoisted subexpressions are
// exactly the ones Go's left-to-right evaluation computes first in
// those functions.
type mapConv struct {
	wMin, wMax float64
	gMin, gMax float64
	rHi        float64
	scale      float64 // (gMax-gMin)/(wMax-wMin)
	gSpan      float64 // gMax - gMin
	wSpan      float64 // wMax - wMin
	degenerate bool    // wMax <= wMin (or gMax <= gMin for eff)
}

func newMapConv(wMin, wMax, rLo, rHi float64) mapConv {
	m := mapConv{
		wMin: wMin, wMax: wMax,
		gMin: 1 / rHi, gMax: 1 / rLo,
		rHi:        rHi,
		degenerate: wMax <= wMin,
	}
	m.gSpan = m.gMax - m.gMin
	m.wSpan = m.wMax - m.wMin
	if !m.degenerate {
		m.scale = (m.gMax - m.gMin) / (m.wMax - m.wMin)
	}
	return m
}

// target is TargetResistance(w, wMin, wMax, rLo, rHi).
func (m mapConv) target(w float64) float64 {
	if m.degenerate {
		return m.rHi
	}
	g := m.scale*(w-m.wMin) + m.gMin
	if g < m.gMin {
		g = m.gMin
	} else if g > m.gMax {
		g = m.gMax
	}
	return 1 / g
}

// eff inverts eq. (4): the weight realized by a device at resistance
// r under the mapping ranges (pinned by the EffectiveWeight test
// oracle).
func (m mapConv) eff(r float64) float64 {
	if m.gMax <= m.gMin {
		return m.wMin
	}
	g := 1 / r
	return (g-m.gMin)/m.gSpan*m.wSpan + m.wMin
}

// Step addresses one tuning pulse of a batch: device (I, J) pulsed in
// direction Dir. Dir > 0 increases the effective weight (conductance
// up, resistance down), Dir < 0 decreases it; steps with Dir == 0 are
// skipped.
type Step struct {
	I, J, Dir int
}

// StepStats reports what one StepDevices call did.
type StepStats struct {
	// Pulses counts programming pulses applied, including failed ones;
	// Stress is their accumulated cost.
	Pulses int
	Stress float64
	// Applied counts steps whose pulse eventually took.
	Applied int
	// Retries counts extra pulses spent re-attempting transient
	// failures (their stress is included in Stress).
	Retries int
	// StuckSkipped counts steps dropped because their device is
	// permanently stuck (no pulse applied).
	StuckSkipped int
}

// StepDevices applies a whole list of online-tuning pulses in one
// call. A tuning pulse moves the analog conductance by a small fixed
// increment (device.Params.TunePulseDeltaG), bounded by the device's
// aged window intersected with the fresh grid (the periphery cannot
// program beyond the fresh range). For each step the device is skipped
// if permanently stuck, otherwise pulsed with up to retryBudget
// immediate retries of transient programming failures drawn from the
// attached fault injector; a failed pulse still costs its full stress —
// retries are never free. Telemetry is flushed once per call.
// Allocation-free.
func (c *Crossbar) StepDevices(steps []Step, retryBudget int) StepStats {
	var st StepStats
	if retryBudget < 0 {
		retryBudget = 0
	}
	for _, sp := range steps {
		if sp.Dir == 0 {
			continue
		}
		d := c.Device(sp.I, sp.J)
		if d.Stuck() {
			st.StuckSkipped++
			continue
		}
		applied := false
		for attempt := 0; ; attempt++ {
			if c.inj != nil && c.inj.PulseFails() {
				st.Stress += d.FailedPulse()
				st.Pulses++
			} else {
				lo, hi := c.agedBoundsIdx(sp.I*c.Cols + sp.J)
				if lo < c.params.RminFresh {
					lo = c.params.RminFresh
				}
				if hi < lo {
					hi = lo
				}
				st.Stress += d.Pulse(sp.Dir, lo, hi)
				st.Pulses++
				applied = true
			}
			if applied || attempt >= retryBudget {
				break
			}
			st.Retries++
		}
		if applied {
			st.Applied++
		}
	}
	c.tel.pulses.Add(int64(st.Pulses))
	c.tel.stress.Add(st.Stress)
	return st
}

// QuantizeWeightsInto writes into dst (same volume as w) the
// hypothetical effective weights of mapping w onto the level grid
// restricted to the common range [rLo, rHi], assuming every device can
// reach its target (no per-device aging clipping). This is the
// software-side simulation the aging-aware range selection uses to
// score candidate ranges before committing any programming pulses.
// Allocation-free. The level window and
// the eq. (4) constants are hoisted out of the element loop (they
// depend only on the ranges), and level resistances come from the
// device grid LUT; every element is bit-identical to the direct
// per-element computation.
func (c *Crossbar) QuantizeWeightsInto(dst, w *tensor.Tensor, rLo, rHi float64) {
	if dst.Size() != w.Size() {
		panic(fmt.Sprintf("crossbar: quantize into size %d, want %d", dst.Size(), w.Size()))
	}
	wMin, wMax := w.MinMax()
	conv := newMapConv(wMin, wMax, rLo, rHi)
	g := c.grid
	loLvl, hiLvl, ok := g.WindowLevels(rLo, rHi)
	fallback := 0
	if !ok {
		// No level inside the window: every target collapses onto the
		// grid point nearest the window midpoint (NearestLevelIn's
		// fallback, hoisted — it does not depend on the element).
		fallback = g.NearestLevel((rLo + rHi) / 2)
	}
	dd, wd := dst.Data(), w.Data()
	for i, v := range wd {
		lvl := fallback
		if ok {
			lvl = g.NearestLevel(conv.target(v))
			if lvl < loLvl {
				lvl = loLvl
			} else if lvl > hiLvl {
				lvl = hiLvl
			}
		}
		dd[i] = conv.eff(g.LevelResistance(lvl))
	}
}
