// Package device models a single programmable memristor as used in the
// paper's crossbars: a resistance programmable within a device range,
// quantized to a fixed number of levels that are uniform in resistance
// (Section II-B; 32 levels per [14], 64 per [15]), and a programming
// pulse model whose accumulated electrical stress drives the aging
// functions of eq. (6)/(7).
//
// The central physical coupling the paper exploits is represented
// explicitly: the stress contributed by a programming pulse is
// proportional to the power dissipated in the device (V_prog^2 * g), so
// devices programmed to small conductances — large resistances, the
// skewed-weight regime — age more slowly.
package device

import (
	"fmt"
	"math"
)

// Params describes one memristor technology.
type Params struct {
	// RminFresh and RmaxFresh bound the programmable resistance range
	// of a fresh device, in Ohms (RminFresh = LRS, RmaxFresh = HRS).
	RminFresh float64 `json:"rmin_fresh"`
	RmaxFresh float64 `json:"rmax_fresh"`
	// Levels is the number of quantization levels, spread uniformly
	// across the fresh resistance range.
	Levels int `json:"levels"`
	// Vprog is the programming pulse amplitude in Volts.
	Vprog float64 `json:"vprog"`
	// PulseWidth is the programming pulse duration in seconds.
	PulseWidth float64 `json:"pulse_width"`
	// Vread is the read voltage used during inference, in Volts.
	Vread float64 `json:"vread"`
	// UniformStress, when set, makes every programming pulse cost one
	// reference unit of stress regardless of the device's conductance.
	// This is an ablation switch: it removes the physical coupling
	// (stress ~ programming power) that lets skewed weights slow down
	// aging, isolating that mechanism's contribution.
	UniformStress bool `json:"uniform_stress"`
	// StressDerate scales every pulse's stress contribution; counter-
	// aging techniques that reduce the effective programming power
	// (shaped pulses [9], series resistors [11]) express their benefit
	// here.
	//
	// The zero value means 1 (no derating), so a plain
	// device.Params32() literal ages at the nominal rate:
	//
	//	p := device.Params32()      // StressDerate == 0 -> factor 1
	//	p.StressDerate = 0.5        // halve every pulse's stress
	//
	// Negative values are rejected by Validate; to disable derating,
	// leave the field zero (or set it to exactly 1).
	StressDerate float64 `json:"stress_derate"`
	// Model selects the pulse-response physics (see ModelSpec and the
	// Model interface). The zero value is the linear model and is
	// omitted from serialization, so specs written before the model zoo
	// keep their historical fingerprints.
	Model ModelSpec `json:"model,omitzero"`
	// Drift configures spontaneous conductance state drift (see
	// DriftSpec). The zero value disables it and is omitted from
	// serialization.
	Drift DriftSpec `json:"drift,omitzero"`
}

// MaxLevels bounds Params.Levels at 64x the paper's finest (64-level)
// device. Grid builds a per-level table, so an unbounded count would be
// an unbounded allocation.
const MaxLevels = 4096

// stressDerate returns the effective derating factor.
func (p Params) stressDerate() float64 {
	if p.StressDerate == 0 {
		return 1
	}
	return p.StressDerate
}

// Validate reports an error for physically meaningless parameters.
func (p Params) Validate() error {
	switch {
	case p.RminFresh <= 0 || p.RmaxFresh <= p.RminFresh:
		return fmt.Errorf("device: need 0 < RminFresh < RmaxFresh, got %g/%g", p.RminFresh, p.RmaxFresh)
	case p.Levels < 2 || p.Levels > MaxLevels:
		return fmt.Errorf("device: levels must be in [2, %d], got %d", MaxLevels, p.Levels)
	case p.Vprog <= 0 || p.PulseWidth <= 0:
		return fmt.Errorf("device: programming pulse must have positive amplitude and width, got %gV/%gs", p.Vprog, p.PulseWidth)
	case p.Vread <= 0 || p.Vread >= p.Vprog:
		return fmt.Errorf("device: read voltage must be in (0, Vprog), got %g", p.Vread)
	case p.StressDerate < 0:
		return fmt.Errorf("device: stress derating must be non-negative, got %g", p.StressDerate)
	}
	if err := p.Model.validate(); err != nil {
		return err
	}
	return p.Drift.validate()
}

// Params32 returns a 32-level TiOx-style device (after [14]): a 10 kOhm
// to 100 kOhm range with 2 V / 100 ns programming pulses.
func Params32() Params {
	return Params{RminFresh: 10e3, RmaxFresh: 100e3, Levels: 32, Vprog: 2.0, PulseWidth: 100e-9, Vread: 0.3}
}

// Params64 returns a 64-level device (after [15]) on the same range.
func Params64() Params {
	p := Params32()
	p.Levels = 64
	return p
}

// GminFresh returns the smallest fresh conductance (at RmaxFresh).
func (p Params) GminFresh() float64 { return 1 / p.RmaxFresh }

// GmaxFresh returns the largest fresh conductance (at RminFresh).
func (p Params) GmaxFresh() float64 { return 1 / p.RminFresh }

// LevelSpacing returns the resistance distance between adjacent levels.
func (p Params) LevelSpacing() float64 {
	return (p.RmaxFresh - p.RminFresh) / float64(p.Levels-1)
}

// LevelResistance returns the resistance of level i on the fresh grid.
// Level 0 is RminFresh; level Levels-1 is RmaxFresh.
func (p Params) LevelResistance(i int) float64 {
	if i < 0 || i >= p.Levels {
		panic(fmt.Sprintf("device: level %d out of range [0,%d)", i, p.Levels))
	}
	return p.RminFresh + float64(i)*p.LevelSpacing()
}

// TunePulseDeltaG returns the conductance change of one online-tuning
// pulse. Tuning pulses are small constant-amplitude nudges (eq. (5))
// that move the analog conductance by a fraction of a level, unlike the
// mapping pulses that hop whole quantization levels.
func (p Params) TunePulseDeltaG() float64 {
	return (p.GmaxFresh() - p.GminFresh()) / float64(4*p.Levels)
}

// refPulseEnergy returns the energy of one programming pulse through a
// device at maximum fresh conductance. Stress is accounted in units of
// this reference energy so aging-model constants are dimensionless and
// technology-portable.
func (p Params) refPulseEnergy() float64 {
	return p.Vprog * p.Vprog * p.GmaxFresh() * p.PulseWidth
}

// FaultKind classifies the permanent fault state of a device. Stuck-at
// faults are the dominant hard-failure mode of filamentary RRAM: the
// filament either fuses permanently (stuck-at-LRS, a short near the
// lowest resistance) or ruptures permanently (stuck-at-HRS, pinned at
// the highest resistance). A stuck device ignores programming pulses —
// but pulses applied to it still dissipate power and are still paid
// for by the periphery, so fault-unaware controllers waste both time
// and write energy on dead cells.
type FaultKind int

const (
	// FaultNone is a healthy, programmable device.
	FaultNone FaultKind = iota
	// FaultStuckLRS pins the device at its low-resistance state
	// (maximum conductance) — the worst case for column currents.
	FaultStuckLRS
	// FaultStuckHRS pins the device at its high-resistance state
	// (minimum conductance).
	FaultStuckHRS
)

// String names the fault kind for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultStuckLRS:
		return "stuck-LRS"
	case FaultStuckHRS:
		return "stuck-HRS"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Device is one memristor instance: its current programmed resistance
// plus its irreversible programming history.
type Device struct {
	p Params
	// g is the shared quantization/pulse lookup table for p, resolved
	// once at construction (see Grid); its methods are bit-identical to
	// the Params ones.
	g *Grid
	// m is the shared pulse-response model for p (see Model), resolved
	// once at construction.
	m Model
	// noiseSeed keys the device's deterministic pulse-noise streams
	// (see SeedNoise); d2d is its fixed device-to-device draw and noisy
	// caches whether the model consults per-pulse draws at all, so the
	// default (variation-free) pulse path never derives noise.
	noiseSeed uint64
	d2d       float64
	noisy     bool
	// r is the current resistance in Ohms.
	r float64
	// stress is the accumulated normalized programming stress that
	// drives eq. (6)/(7). It never decreases.
	stress float64
	// agingFactor scales this device's stress accumulation, modelling
	// device-to-device endurance variability (process variation).
	// 1.0 is nominal.
	agingFactor float64
	// pulses counts programming pulses over the device lifetime.
	pulses int64
	// fault is the permanent fault state; a stuck device's resistance
	// is pinned and programming no longer moves it.
	fault FaultKind
}

// New returns a fresh device initialized to its highest resistance
// (lowest conductance) state.
func New(p Params) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	d := &Device{p: p, g: p.Grid(), m: p.ResolveModel(), r: p.RmaxFresh, agingFactor: 1}
	d.SeedNoise(0)
	return d
}

// AgingFactor returns the device's endurance-variability factor.
func (d *Device) AgingFactor() float64 { return d.agingFactor }

// SetAgingFactor sets the device's endurance-variability factor: every
// pulse's stress is multiplied by f. Weak devices have f > 1.
func (d *Device) SetAgingFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("device: aging factor must be positive, got %g", f))
	}
	d.agingFactor = f
}

// Params returns the device technology parameters.
func (d *Device) Params() Params { return d.p }

// Resistance returns the current programmed resistance in Ohms.
func (d *Device) Resistance() float64 { return d.r }

// Conductance returns the current conductance in Siemens.
func (d *Device) Conductance() float64 { return 1 / d.r }

// Stress returns the accumulated normalized programming stress.
func (d *Device) Stress() float64 { return d.stress }

// Pulses returns the lifetime programming pulse count.
func (d *Device) Pulses() int64 { return d.pulses }

// Fault returns the device's permanent fault state.
func (d *Device) Fault() FaultKind { return d.fault }

// Stuck reports whether the device is permanently stuck.
func (d *Device) Stuck() bool { return d.fault != FaultNone }

// SetFault pins the device into the given permanent fault state:
// stuck-at-LRS snaps the resistance to the fresh LRS (the fused
// filament is a low-resistance short regardless of the aged window),
// stuck-at-HRS to the fresh HRS. Setting FaultNone un-sticks the
// device (used by tests); the resistance keeps its pinned value.
func (d *Device) SetFault(k FaultKind) {
	d.fault = k
	switch k {
	case FaultStuckLRS:
		d.r = d.p.RminFresh
	case FaultStuckHRS:
		d.r = d.p.RmaxFresh
	}
}

// FailedPulse accounts one programming pulse that did not take — a
// transient programming failure, or a write attempt on a stuck device.
// The pulse still dissipates the programming power at the device's
// present state, so stress and the pulse count accumulate exactly as
// for a successful pulse; only the resistance stays put. Retried
// pulses are therefore never free. It returns the stress added.
func (d *Device) FailedPulse() float64 {
	s := d.g.PulseStress(d.r) * d.agingFactor
	d.stress += s
	d.pulses++
	return s
}

// Drift perturbs the resistance without programming (the recoverable
// read-disturb drift of [8], distinct from aging). The resistance stays
// within [lo, hi]. A stuck device does not drift: its filament state is
// locked.
func (d *Device) Drift(delta, lo, hi float64) {
	if d.Stuck() {
		return
	}
	d.r += delta
	if d.r < lo {
		d.r = lo
	}
	if d.r > hi {
		d.r = hi
	}
}

// AddStress injects raw programming stress without changing the
// device's state, scaled by the device's aging factor. It models prior
// life (burn-in) for experiments that must start from a pre-aged array.
func (d *Device) AddStress(s float64) {
	if s < 0 {
		panic(fmt.Sprintf("device: negative stress injection %g", s))
	}
	d.stress += s * d.agingFactor
}

// Pulse applies one online-tuning pulse: the conductance moves per the
// device's pulse-response model (for the linear model, by
// dir * TunePulseDeltaG), with the resistance clamped to the valid
// window [lo, hi]. The pulse costs stress whether or not the device
// could move (a pinned device still dissipates the programming power).
// It returns the stress added.
func (d *Device) Pulse(dir int, lo, hi float64) float64 {
	if dir == 0 {
		return 0
	}
	if d.Stuck() {
		return d.FailedPulse()
	}
	s := d.g.PulseStress(d.r) * d.agingFactor
	d.stress += s
	d.pulses++
	var c2c float64
	if d.noisy {
		c2c = d.c2cDraw()
	}
	g := d.m.StepG(1/d.r, dir, d.d2d, c2c)
	if g < 1/hi {
		g = 1 / hi
	}
	if g > 1/lo {
		g = 1 / lo
	}
	d.r = 1 / g
	return s
}

func sign(v int) int {
	if v > 0 {
		return 1
	}
	return -1
}

// ProgramResult reports what one Program call did.
type ProgramResult struct {
	// Achieved is the resistance actually programmed.
	Achieved float64
	// Pulses is the number of programming pulses applied.
	Pulses int
	// Stress is the normalized stress added by those pulses.
	Stress float64
	// Clipped reports whether the target fell outside [lo, hi].
	Clipped bool
	// Stuck reports that the device is permanently stuck: the write
	// attempt was detected as ineffective after one verify pulse and
	// Achieved is the pinned resistance, not the target.
	Stuck bool
}

// Program steps the device towards target resistance, constrained to
// the valid window [lo, hi] (the caller supplies the device's current
// aged bounds). The device walks the fresh level grid one pulse per
// level; each pulse adds stress proportional to the instantaneous
// programming power. Programming to the already-held level is free.
func (d *Device) Program(target, lo, hi float64) ProgramResult {
	if lo > hi {
		panic(fmt.Sprintf("device: program window inverted [%g, %g]", lo, hi))
	}
	res := ProgramResult{}
	if d.Stuck() {
		// The write-verify periphery applies one pulse, sees no
		// movement, and gives up; the attempt still costs its stress.
		// Fault-aware controllers avoid even this by skipping devices
		// their fault map marks as stuck.
		res.Stuck = true
		res.Achieved = d.r
		goalLvl := d.g.NearestLevelIn(target, lo, hi)
		if d.g.LevelResistance(goalLvl) != d.r {
			res.Stress = d.FailedPulse()
			res.Pulses = 1
		}
		return res
	}
	goal := target
	if goal < lo {
		goal, res.Clipped = lo, true
	} else if goal > hi {
		goal, res.Clipped = hi, true
	}
	goalLvl := d.g.NearestLevelIn(goal, lo, hi)
	goalR := d.g.LevelResistance(goalLvl)

	curLvl := d.g.NearestLevel(d.r)
	// Off-grid (drifted) resistance needs at least one corrective pulse
	// even when the nearest level equals the goal level.
	needsCorrection := math.Abs(d.r-goalR) > d.g.LevelSpacing()*0.01

	step := 1
	if goalLvl < curLvl {
		step = -1
	}
	for lvl := curLvl; lvl != goalLvl; lvl += step {
		// Pulse applied while the device sits at the current state.
		s := d.g.PulseStress(d.r) * d.agingFactor
		d.stress += s
		res.Stress += s
		res.Pulses++
		d.pulses++
		d.r = d.g.LevelResistance(lvl + step)
	}
	if res.Pulses == 0 && needsCorrection {
		s := d.g.PulseStress(d.r) * d.agingFactor
		d.stress += s
		res.Stress += s
		res.Pulses = 1
		d.pulses++
		d.r = goalR
	}
	if res.Pulses > 0 {
		d.r = goalR
	}
	res.Achieved = d.r
	return res
}
