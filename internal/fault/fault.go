// Package fault models device-level hardware failure in memristor
// crossbars and drives its deterministic injection into the simulated
// arrays. The paper's lifetime harness assumes every device stays
// programmable until aging kills the whole array; real arrays fail
// device-by-device. Three empirically dominant mechanisms are modelled
// (cf. Song et al., "Improving Dependability of Neuromorphic Computing
// With Non-Volatile Memory"; Farias & Kung, "Efficient Reprogramming of
// Memristive Crossbars"):
//
//   - Permanent stuck-at faults: a device's filament fuses
//     (stuck-at-LRS) or ruptures (stuck-at-HRS) and stops responding to
//     programming. A fraction of devices may be stuck at deployment
//     (manufacturing defects), and survivors wear out in service with
//     an aging-correlated hazard — each device draws a stress capacity,
//     and the heavily stressed devices cross theirs first.
//   - Transient programming failure: a pulse silently doesn't take
//     (write noise), with a configurable per-pulse probability. The
//     pulse still stresses the device, so retries are never free.
//   - Read-noise bursts: occasionally a whole readback is perturbed by
//     multiplicative resistance noise (sense-amp / IR-drop transients),
//     without changing any device state.
//
// Everything is seeded: two injectors built from the same Config, device
// count and seed produce identical fault maps and identical per-pulse /
// per-read decisions, so fault campaigns are exactly reproducible.
//
// The package sits below internal/crossbar in the dependency order:
// crossbars hold an *Injector and consult it on their program and read
// paths; the tolerance mechanisms (internal/tuning retry/skip,
// internal/mapping compensation) and the graceful-degradation stages
// (internal/lifetime) build on the state it exposes.
package fault

import (
	"fmt"
	"math"

	"memlife/internal/device"
	"memlife/internal/tensor"
)

// Config parameterizes fault injection for one array (or, via
// per-layer derived seeds, a whole mapped network). The zero value
// disables every mechanism. The JSON tags are the schema of the
// "faults" section of a scenario spec (internal/spec); Seed is
// excluded because the run seed is injected at resolution time.
type Config struct {
	// StuckRate is the fraction of devices permanently stuck at
	// deployment (manufacturing defects), in [0, 1). Stuck sets are
	// nested across rates for a fixed seed: every device stuck at rate
	// r is also stuck at any rate r' > r, which keeps fault sweeps
	// monotone in the rate.
	StuckRate float64 `json:"stuck_rate"`
	// LRSFrac is the fraction of stuck devices pinned at LRS (the
	// high-current, high-damage polarity); the rest pin at HRS.
	// Zero means 0.5.
	LRSFrac float64 `json:"lrs_frac"`
	// TransientProb is the per-pulse probability that a programming
	// pulse silently fails to move the device.
	TransientProb float64 `json:"transient_prob"`
	// HazardScale is the mean stress capacity of a device: once its
	// accumulated programming stress exceeds its drawn capacity, the
	// device becomes permanently stuck (aging-correlated wear-out).
	// Zero disables wear-out faults.
	HazardScale float64 `json:"hazard_scale"`
	// HazardSpread is the lognormal sigma of the per-device capacity
	// draw. Zero means 0.5.
	HazardSpread float64 `json:"hazard_spread"`
	// ReadBurstProb is the per-readback probability of a read-noise
	// burst.
	ReadBurstProb float64 `json:"read_burst_prob"`
	// ReadBurstSigma is the relative resistance noise applied during a
	// burst (0.02 = 2% of R). Zero means 0.02.
	ReadBurstSigma float64 `json:"read_burst_sigma"`
	// Seed makes the injection deterministic.
	Seed int64 `json:"-"`
}

// Normalized returns the config with its "zero means X" fields
// resolved: LRSFrac 0 -> 0.5, HazardSpread 0 -> 0.5, ReadBurstSigma 0
// -> 0.02. NewInjector applies it on entry; scenario specs serialize
// the resolved form (internal/spec.Defaults). Note the resolved form
// is not the zero value, so Enabled() must be consulted before
// Normalized() if "all mechanisms off" matters.
func (c Config) Normalized() Config {
	if c.LRSFrac == 0 {
		c.LRSFrac = 0.5
	}
	if c.HazardSpread == 0 {
		c.HazardSpread = 0.5
	}
	if c.ReadBurstSigma == 0 {
		c.ReadBurstSigma = 0.02
	}
	return c
}

// Enabled reports whether any fault mechanism is active.
func (c Config) Enabled() bool {
	return c.StuckRate > 0 || c.TransientProb > 0 || c.HazardScale > 0 || c.ReadBurstProb > 0
}

// Validate reports an error for meaningless parameters.
func (c Config) Validate() error {
	switch {
	case c.StuckRate < 0 || c.StuckRate >= 1:
		return fmt.Errorf("fault: StuckRate must be in [0,1), got %g", c.StuckRate)
	case c.LRSFrac < 0 || c.LRSFrac > 1:
		return fmt.Errorf("fault: LRSFrac must be in [0,1], got %g", c.LRSFrac)
	case c.TransientProb < 0 || c.TransientProb >= 1:
		return fmt.Errorf("fault: TransientProb must be in [0,1), got %g", c.TransientProb)
	case c.HazardScale < 0:
		return fmt.Errorf("fault: HazardScale must be non-negative, got %g", c.HazardScale)
	case c.HazardSpread < 0:
		return fmt.Errorf("fault: HazardSpread must be non-negative, got %g", c.HazardSpread)
	case c.ReadBurstProb < 0 || c.ReadBurstProb >= 1:
		return fmt.Errorf("fault: ReadBurstProb must be in [0,1), got %g", c.ReadBurstProb)
	case c.ReadBurstSigma < 0:
		return fmt.Errorf("fault: ReadBurstSigma must be non-negative, got %g", c.ReadBurstSigma)
	}
	return nil
}

// Injector holds the pre-drawn fault structure of one array plus the
// event streams for transient and read faults. The structural draws
// (which devices start stuck, each device's wear-out capacity and
// stuck polarity) come from their own RNG stream, so the fault map
// depends only on (Config, n, seed) — never on how many pulses or
// reads the simulation happened to perform.
type Injector struct {
	cfg Config

	// u is the per-device uniform draw deciding initial stuck-ness:
	// device i starts stuck iff u[i] < StuckRate (nested across rates).
	u []float64
	// kind is the pre-drawn stuck polarity of each device, used both
	// for initial faults and for wear-out.
	kind []device.FaultKind
	// capacity is the per-device stress capacity (wear-out threshold);
	// +Inf when wear-out is disabled.
	capacity []float64

	rngPulse *tensor.RNG
	rngRead  *tensor.RNG
}

// NewInjector pre-draws the fault structure for an array of n devices.
// The seed combines cfg.Seed with the caller-supplied stream offset so
// each crossbar of a network gets an independent, reproducible stream.
func NewInjector(cfg Config, n int, seed int64) (*Injector, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("fault: need at least one device, got %d", n)
	}
	root := tensor.NewRNG(cfg.Seed + seed)
	rngStruct := root.Split()
	inj := &Injector{
		cfg:      cfg,
		u:        make([]float64, n),
		kind:     make([]device.FaultKind, n),
		capacity: make([]float64, n),
		rngPulse: root.Split(),
		rngRead:  root.Split(),
	}
	for i := 0; i < n; i++ {
		inj.u[i] = rngStruct.Float64()
		if rngStruct.Float64() < cfg.LRSFrac {
			inj.kind[i] = device.FaultStuckLRS
		} else {
			inj.kind[i] = device.FaultStuckHRS
		}
		if cfg.HazardScale > 0 {
			inj.capacity[i] = cfg.HazardScale * math.Exp(rngStruct.Normal(0, cfg.HazardSpread))
		} else {
			inj.capacity[i] = math.Inf(1)
		}
	}
	return inj, nil
}

// N returns the number of devices the injector was built for.
func (in *Injector) N() int { return len(in.u) }

// InitialFault returns the fault device i carries at deployment
// (manufacturing defect), or FaultNone.
func (in *Injector) InitialFault(i int) device.FaultKind {
	if in.u[i] < in.cfg.StuckRate {
		return in.kind[i]
	}
	return device.FaultNone
}

// WearOutFault returns the fault device i acquires once its accumulated
// stress exceeds its drawn capacity, or FaultNone while it survives.
// Heavily stressed devices cross their capacity first — the
// aging-correlated hazard.
func (in *Injector) WearOutFault(i int, stress float64) device.FaultKind {
	if stress > in.capacity[i] {
		return in.kind[i]
	}
	return device.FaultNone
}

// PulseFails draws one transient programming-failure decision.
func (in *Injector) PulseFails() bool {
	if in.cfg.TransientProb <= 0 {
		return false
	}
	return in.rngPulse.Float64() < in.cfg.TransientProb
}

// ReadBurst draws one readback-event decision: whether this readback is
// hit by a noise burst and, if so, the relative resistance sigma.
func (in *Injector) ReadBurst() (bool, float64) {
	if in.cfg.ReadBurstProb <= 0 {
		return false, 0
	}
	if in.rngRead.Float64() < in.cfg.ReadBurstProb {
		return true, in.cfg.ReadBurstSigma
	}
	return false, 0
}

// ReadNoise draws one multiplicative noise factor for a burst-affected
// read: 1 + N(0, sigma), floored well above zero so a noisy read never
// inverts a resistance.
func (in *Injector) ReadNoise(sigma float64) float64 {
	f := 1 + in.rngRead.Normal(0, sigma)
	if f < 0.1 {
		f = 0.1
	}
	return f
}
