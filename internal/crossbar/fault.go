package crossbar

import (
	"fmt"
	"sort"

	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/tensor"
)

// SetFaultInjector attaches a fault injector to the array and applies
// its initial (manufacturing-defect) stuck faults to the devices. The
// injector must have been built for exactly Rows*Cols devices. Pass a
// nil injector to detach fault injection (existing stuck devices stay
// stuck — hard faults are permanent).
func (c *Crossbar) SetFaultInjector(inj *fault.Injector) error {
	if inj != nil && inj.N() != c.Rows*c.Cols {
		return fmt.Errorf("crossbar: injector built for %d devices, array has %d", inj.N(), c.Rows*c.Cols)
	}
	c.inj = inj
	if inj == nil {
		return nil
	}
	for idx, d := range c.devices {
		if k := inj.InitialFault(idx); k != device.FaultNone {
			d.SetFault(k)
		}
	}
	return nil
}

// IsStuck reports whether device (i, j) is permanently stuck.
func (c *Crossbar) IsStuck(i, j int) bool { return c.Device(i, j).Stuck() }

// StuckCounts tallies the permanently stuck devices by polarity.
func (c *Crossbar) StuckCounts() (lrs, hrs int) {
	for _, d := range c.devices {
		switch d.Fault() {
		case device.FaultStuckLRS:
			lrs++
		case device.FaultStuckHRS:
			hrs++
		}
	}
	return lrs, hrs
}

// AdvanceFaults applies the aging-correlated wear-out hazard: every
// healthy device whose accumulated stress has crossed its drawn
// capacity becomes permanently stuck (heavily stressed devices fail
// first). It returns the number of newly stuck devices. A no-op
// without an injector or with wear-out disabled.
func (c *Crossbar) AdvanceFaults() int {
	if c.inj == nil {
		return 0
	}
	newly := 0
	for idx, d := range c.devices {
		if d.Stuck() {
			continue
		}
		if k := c.inj.WearOutFault(idx, d.Stress()); k != device.FaultNone {
			d.SetFault(k)
			newly++
		}
	}
	return newly
}

// TracedUpperBoundsHealthy returns the estimated aged upper resistance
// bounds of the traced devices that are not stuck, sorted ascending —
// the candidate set the fault-aware range selection draws from: a
// stuck device's "bound" says nothing about the programmable range of
// its healthy neighbors. Falls back to all traced bounds when every
// traced device is stuck (the selection must still produce a range).
func (c *Crossbar) TracedUpperBoundsHealthy() []float64 {
	idx := c.TracedIndices()
	out := make([]float64, 0, len(idx))
	for _, ij := range idx {
		if c.IsStuck(ij[0], ij[1]) {
			continue
		}
		_, hi := c.AgedBounds(ij[0], ij[1])
		out = append(out, hi)
	}
	if len(out) == 0 {
		return c.TracedUpperBounds()
	}
	sort.Float64s(out)
	return out
}

// MapWeightsFaultAware programs the weight matrix like MapWeights but
// tolerates the array's stuck devices instead of fighting them:
//
//   - Stuck devices are skipped outright — no write pulses are wasted
//     on cells the fault map knows cannot move.
//   - Each column's stuck-device current error is compensated by the
//     column's healthy devices: a stuck cell contributes a fixed
//     effective weight, so the difference between that contribution
//     and the cell's intended weight is spread evenly over the
//     healthy cells of the same column (column currents sum, so the
//     correction is exact for uniform inputs and first-order for the
//     rest).
//
// Without any stuck devices it behaves exactly like MapWeights.
func (c *Crossbar) MapWeightsFaultAware(w *tensor.Tensor, rLo, rHi float64) MapStats {
	if w.Dim(0) != c.Rows || w.Dim(1) != c.Cols {
		panic(fmt.Sprintf("crossbar: weight shape %v, want [%d %d]", w.Shape(), c.Rows, c.Cols))
	}
	if rLo <= 0 || rHi <= rLo {
		panic(fmt.Sprintf("crossbar: invalid mapping range [%g, %g]", rLo, rHi))
	}
	wMin, wMax := w.MinMax()
	c.wMin, c.wMax = wMin, wMax
	c.rLo, c.rHi = rLo, rHi
	c.mapped = true

	conv := newMapConv(wMin, wMax, rLo, rHi)
	wd := w.Data()

	// Per-column compensation offsets for the healthy devices.
	comp := make([]float64, c.Cols)
	for j := 0; j < c.Cols; j++ {
		errSum := 0.0
		healthy := 0
		for i := 0; i < c.Rows; i++ {
			d := c.Device(i, j)
			if d.Stuck() {
				errSum += conv.eff(d.Resistance()) - wd[i*c.Cols+j]
			} else {
				healthy++
			}
		}
		if healthy > 0 {
			comp[j] = -errSum / float64(healthy)
		}
	}

	var stats MapStats
	usable := usableAccum{track: c.tel.usableMean != nil}
	for idx, d := range c.devices {
		if d.Stuck() {
			stats.Skipped++
			continue
		}
		target := conv.target(wd[idx] + comp[idx%c.Cols])
		lo, hi := c.agedBoundsIdx(idx)
		usable.observe(c.params, lo, hi)
		res := d.Program(target, lo, hi)
		stats.Pulses += res.Pulses
		stats.Stress += res.Stress
		if res.Clipped {
			stats.Clipped++
		}
	}
	c.recordMapTel(stats, usable)
	return stats
}
