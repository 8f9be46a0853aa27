package crossbar

import "memlife/internal/tensor"

// Test-only reference implementations: the naive read path, the
// single-cell tuning pulse and the differential readback. Production
// code reads through ReadWeightsInto and pulses through StepDevices;
// these oracles pin both bit-for-bit.

// EffectiveWeightsNaive recomputes the effective weight matrix from
// per-device resistance state on every call — the original,
// cache-free read path, kept as the reference oracle the cached
// ReadWeightsInto is proven bit-identical against. It consumes the
// same read-burst draws as the cached path, so two identically driven
// arrays stay in lockstep whichever path reads them.
func (c *Crossbar) EffectiveWeightsNaive() (*tensor.Tensor, error) {
	if !c.mapped {
		return nil, ErrNotMapped
	}
	burst, sigma := c.readBurst()
	out := tensor.New(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			r := c.at(i, j).Resistance()
			if burst {
				r *= c.inj.ReadNoise(sigma)
			}
			out.Set(EffectiveWeight(r, c.wMin, c.wMax, c.rLo, c.rHi), i, j)
		}
	}
	return out, nil
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
	d := c.at(i, j)
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
	// A pulse that took moved exactly this cell: patch the cached read
	// path instead of invalidating it (failed pulses leave the
	// resistance — and therefore the cache — untouched).
	c.patch(i, j)
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
			gp := d.Pos.at(i, j).Conductance()
			gn := d.Neg.at(i, j).Conductance()
			out.Set((gp-gn)*d.scale, i, j)
		}
	}
	return out, nil
}
