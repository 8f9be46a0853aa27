package crossbar

import (
	"fmt"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/tensor"
)

// DifferentialCrossbar implements the two-devices-per-weight mapping
// used by several crossbar systems as an alternative to the paper's
// single-device range mapping (eq. (4)): a weight w is realized as the
// difference of two conductances, w = (gPos - gNeg) * scale, with the
// column periphery subtracting the two partial currents.
//
// Differential mapping represents zero weights with both devices at
// minimum conductance, so quasi-normal weight distributions naturally
// draw small programming currents — at the price of twice the devices
// and a subtracting read-out. It is included as a comparison point for
// the paper's zero-hardware-cost approach (see the "differential"
// experiment).
type DifferentialCrossbar struct {
	Pos *Crossbar
	Neg *Crossbar

	// scale converts conductance difference to weight value.
	scale  float64
	mapped bool
}

// NewDifferential builds a differential array of rows x cols weight
// cells (2*rows*cols devices).
func NewDifferential(rows, cols int, p device.Params, m aging.Model, tempK float64) (*DifferentialCrossbar, error) {
	pos, err := New(rows, cols, p, m, tempK, 0)
	if err != nil {
		return nil, err
	}
	neg, err := New(rows, cols, p, m, tempK, 0)
	if err != nil {
		return nil, err
	}
	return &DifferentialCrossbar{Pos: pos, Neg: neg}, nil
}

// MapWeights programs w into the pair: positive weights raise the Pos
// device above gMin, negative weights raise the Neg device, and the
// magnitude scale is set by the largest |w| across the matrix. Both
// devices of a cell are programmed within their own aged windows.
func (d *DifferentialCrossbar) MapWeights(w *tensor.Tensor) MapStats {
	if w.Dim(0) != d.Pos.Rows || w.Dim(1) != d.Pos.Cols {
		panic(fmt.Sprintf("crossbar: differential weight shape %v, want [%d %d]", w.Shape(), d.Pos.Rows, d.Pos.Cols))
	}
	p := d.Pos.Params()
	gMin, gMax := p.GminFresh(), p.GmaxFresh()
	absMax := w.AbsMax()
	if absMax == 0 {
		absMax = 1
	}
	d.scale = absMax / (gMax - gMin)
	d.mapped = true
	// Each half maps magnitude [0, absMax] onto the full conductance
	// range.
	var stats MapStats
	for i := 0; i < d.Pos.Rows; i++ {
		for j := 0; j < d.Pos.Cols; j++ {
			v := w.At(i, j)
			posMag, negMag := 0.0, 0.0
			if v >= 0 {
				posMag = v
			} else {
				negMag = -v
			}
			for _, half := range []struct {
				cb  *Crossbar
				mag float64
			}{{d.Pos, posMag}, {d.Neg, negMag}} {
				g := gMin + half.mag/absMax*(gMax-gMin)
				target := 1 / g
				lo, hi := half.cb.AgedBounds(i, j)
				res := half.cb.Device(i, j).Program(target, lo, hi)
				stats.Pulses += res.Pulses
				stats.Stress += res.Stress
				if res.Clipped {
					stats.Clipped++
				}
			}
		}
	}
	return stats
}

// TotalStress sums the accumulated stress over both halves.
func (d *DifferentialCrossbar) TotalStress() float64 {
	return d.Pos.TotalStress() + d.Neg.TotalStress()
}

// TotalPulses sums the pulse counts over both halves.
func (d *DifferentialCrossbar) TotalPulses() int64 {
	return d.Pos.TotalPulses() + d.Neg.TotalPulses()
}

// MeanRelConductance reports where the pair's devices sit in the
// conductance range on average — the aging-relevant statistic compared
// against single-device mapping in the "differential" experiment.
func (d *DifferentialCrossbar) MeanRelConductance() float64 {
	p := d.Pos.Params()
	gMin, gMax := p.GminFresh(), p.GmaxFresh()
	total, n := 0.0, 0
	for _, cb := range []*Crossbar{d.Pos, d.Neg} {
		for i := 0; i < cb.Rows; i++ {
			for j := 0; j < cb.Cols; j++ {
				total += (cb.Device(i, j).Conductance() - gMin) / (gMax - gMin)
				n++
			}
		}
	}
	return total / float64(n)
}
