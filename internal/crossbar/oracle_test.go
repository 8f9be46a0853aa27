package crossbar

import "memlife/internal/tensor"

// Test-only reference implementations: the eq. (4) inverse, the
// single-cell tuning pulse and the differential readback. Production
// code reads back through mapConv.eff and pulses through StepDevices;
// these oracles pin both bit-for-bit.

// EffectiveWeight inverts eq. (4): the weight actually realized by a
// device programmed to resistance r under the given mapping ranges.
func EffectiveWeight(r, wMin, wMax, rLo, rHi float64) float64 {
	gMin, gMax := 1/rHi, 1/rLo
	if gMax <= gMin {
		return wMin
	}
	g := 1 / r
	return (g-gMin)/(gMax-gMin)*(wMax-wMin) + wMin
}

// StepDevice applies one online-tuning pulse to device (i, j) — the
// single-cell reference StepDevices is proven equivalent against: dir
// > 0 increases the effective weight (conductance up, resistance down),
// dir < 0 decreases it. Tuning pulses move the analog conductance by a
// small fixed increment (device.Params.TunePulseDeltaG), bounded by the
// device's aged window intersected with the fresh grid (the periphery
// cannot program beyond the fresh range).
//
// It returns the stress added and whether the pulse actually took:
// applied is false when the device is permanently stuck or when the
// attached fault injector made the pulse fail transiently. A failed
// pulse still costs its full stress — retries are never free.
func (c *Crossbar) StepDevice(i, j, dir int) (stress float64, applied bool) {
	if dir == 0 {
		return 0, false
	}
	d := c.Device(i, j)
	if d.Stuck() {
		s := d.FailedPulse()
		c.tel.pulses.Inc()
		c.tel.stress.Add(s)
		return s, false
	}
	if c.inj != nil && c.inj.PulseFails() {
		s := d.FailedPulse()
		c.tel.pulses.Inc()
		c.tel.stress.Add(s)
		return s, false
	}
	lo, hi := c.AgedBounds(i, j)
	if lo < c.params.RminFresh {
		lo = c.params.RminFresh
	}
	if hi < lo {
		hi = lo
	}
	stress = d.Pulse(dir, lo, hi)
	c.tel.pulses.Inc()
	c.tel.stress.Add(stress)
	return stress, true
}

// EffectiveWeights reads back the weights the pair implements,
// (gPos - gNeg) * scale per cell. It returns ErrNotMapped before the
// first MapWeights.
func (d *DifferentialCrossbar) EffectiveWeights() (*tensor.Tensor, error) {
	if !d.mapped {
		return nil, ErrNotMapped
	}
	out := tensor.New(d.Pos.Rows, d.Pos.Cols)
	for i := 0; i < d.Pos.Rows; i++ {
		for j := 0; j < d.Pos.Cols; j++ {
			gp := d.Pos.Device(i, j).Conductance()
			gn := d.Neg.Device(i, j).Conductance()
			out.Set((gp-gn)*d.scale, i, j)
		}
	}
	return out, nil
}
