// Package counteraging implements the prior-art counter-aging
// techniques the paper's related-work section discusses, as baselines
// for the proposed framework:
//
//   - Pulse shaping ([9]): triangular or sinusoidal programming pulses
//     whose average power is lower than the DC pulse of the same
//     amplitude, reducing per-pulse stress at the cost of slower
//     programming.
//   - Series resistor ([11]): a resistor in series with each memristor
//     suppresses the voltage (and current) across the device during
//     programming; the divider weakens as the device resistance grows.
//
// The paper's point is that these techniques either cost extra hardware
// (series resistors) or programming time (pulse shaping), while the
// proposed software/hardware co-optimization costs nothing; this
// package makes that comparison quantitative.
package counteraging

import (
	"fmt"
	"math"

	"memlife/internal/device"
)

// PulseShape selects the programming pulse waveform of [9].
type PulseShape int

const (
	// PulseDC is the conventional rectangular pulse (factor 1).
	PulseDC PulseShape = iota
	// PulseTriangular ramps linearly up and down; its mean squared
	// voltage is 1/3 of the DC pulse.
	PulseTriangular
	// PulseSinusoidal follows a half-sine; its mean squared voltage is
	// 1/2 of the DC pulse.
	PulseSinusoidal
)

// String names the shape.
func (s PulseShape) String() string {
	switch s {
	case PulseDC:
		return "dc"
	case PulseTriangular:
		return "triangular"
	case PulseSinusoidal:
		return "sinusoidal"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// EnergyFactor returns the pulse's mean V^2 relative to a DC pulse of
// the same amplitude: 1 for DC, 1/3 for triangular (mean of t^2 over a
// symmetric ramp), 1/2 for half-sine (mean of sin^2).
func (s PulseShape) EnergyFactor() float64 {
	switch s {
	case PulseTriangular:
		return 1.0 / 3.0
	case PulseSinusoidal:
		return 0.5
	default:
		return 1
	}
}

// SlowdownFactor returns how many shaped pulses replace one DC pulse to
// deliver the same programming dose: the inverse of the energy factor,
// rounded up. Pulse shaping trades programming time for stress.
func (s PulseShape) SlowdownFactor() int {
	return int(math.Ceil(1 / s.EnergyFactor()))
}

// ApplyPulseShape derates the device's per-pulse stress by the shape's
// energy factor and stretches the pulse width by the slowdown factor,
// returning the modified parameters. One shaped (longer) pulse still
// moves the device one level, so the stress per programmed level drops
// to EnergyFactor of the DC case — the "lower average voltage causes
// less aging" observation of [9] — at the cost of SlowdownFactor more
// programming time.
func ApplyPulseShape(p device.Params, s PulseShape) device.Params {
	out := p
	out.StressDerate = p.StressDerate * s.EnergyFactor()
	out.PulseWidth = p.PulseWidth * float64(s.SlowdownFactor())
	return out
}

// SeriesResistorParams models [11]: a fixed resistor Rs in series with
// every cell. During programming the device sees only the divided
// voltage V * R/(R+Rs), so the power dissipated in the device is
// V^2 * R / (R+Rs)^2 instead of V^2 / R... relative to the undivided
// pulse the stress is derated by (R/(R+Rs))^2. The divider is most
// protective exactly where aging is worst — at low device resistance —
// at the cost of one resistor per cell and a reduced programming
// voltage budget.
type SeriesResistorParams struct {
	device.Params
	// Rs is the series resistance in Ohms.
	Rs float64
}

// Validate reports an error for non-physical configurations.
func (p SeriesResistorParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Rs < 0 {
		return fmt.Errorf("counteraging: series resistance must be non-negative, got %g", p.Rs)
	}
	return nil
}

// StressDerating returns the factor (R/(R+Rs))^2 by which the series
// resistor reduces the programming stress of a device currently at
// resistance r.
func (p SeriesResistorParams) StressDerating(r float64) float64 {
	if r <= 0 {
		panic(fmt.Sprintf("counteraging: non-positive resistance %g", r))
	}
	f := r / (r + p.Rs)
	return f * f
}
