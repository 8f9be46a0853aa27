// Package fleet simulates a population of crossbar instances behind a
// load balancer under synthetic traffic — the systems layer that turns
// the per-device lifetime model into fleet-survival and
// p99-accuracy-under-load results (DESIGN.md §9, after the DNN-Life
// framing of aging mitigation as a fleet/energy problem).
//
// The simulator runs on a deterministic integer tick clock: each tick
// first completes every instance whose maintenance falls due on it,
// then routes and serves that tick's traffic. All randomness comes
// from one splitmix64 stream derived from the run seed (the same
// seeding discipline as internal/campaign). Given equal (Config, device, model, tempK,
// seed), two runs produce identical results whatever the host, worker
// count, or wall clock — the campaign engine's byte-identity guarantee
// extends through fleet shards unchanged.
//
// The aging loop closed on the tick clock:
//
//	load -> inference count -> read-disturb drift -> retune ->
//	programming stress -> window shrink (aging.Model.Bounds) ->
//	costlier tuning -> remap -> ... -> usable levels < minLevels ->
//	death -> replacement
package fleet

import (
	"fmt"
	"math"
)

// Balancer names the routing policies.
const (
	BalRoundRobin   = "round-robin"
	BalLeastAged    = "least-aged"
	BalHashAffinity = "hash-affinity"
)

// Traffic patterns.
const (
	PatternDiurnal = "diurnal"
	PatternBursty  = "bursty"
	PatternZipf    = "zipf"
)

// The hand-set physics of the qualitative fleet model. Each has one
// value in both speed tiers, in every fleet-survival arm and in every
// shipped scenario, so none is a setting; they await calibration
// against measured fleet data (ROADMAP item 7).
const (
	// samplePoints bounds the survival-curve resolution (points are
	// taken every Ticks/samplePoints ticks).
	samplePoints int = 64

	// peakFactor is the diurnal sinusoid amplitude as a fraction of
	// Traffic.Load.
	peakFactor float64 = 0.5
	// burstFactor multiplies Traffic.Load during the on-phase of the
	// bursty pattern; burstOn/burstOff are its phase lengths in ticks.
	burstFactor float64 = 4
	burstOn     int     = 20
	burstOff    int     = 80
	// zipfS is the Zipf skew exponent of the key mix.
	zipfS float64 = 1.1

	// capacity is the requests one healthy instance serves per tick;
	// queueCap bounds its backlog (arrivals beyond it are dropped).
	capacity int = 100
	queueCap int = 500
	// targetAcc is the delivered-accuracy floor the fleet maintains.
	targetAcc float64 = 0.76
	// baseIters is the iterations a retune needs on a freshly mapped
	// window; costExponent shapes how that grows as the window shrinks
	// relative to the last remap: iters = baseIters *
	// (usableAtRemap/usable)^costExponent.
	baseIters    float64 = 8
	costExponent float64 = 2
	// itersPerTick converts tuning iterations to downtime ticks.
	itersPerTick float64 = 50
	// remapTicks is the extra downtime of an aging-aware remap (on top
	// of the post-remap tune).
	remapTicks int = 5
	// minLevels is the usable-level floor below which no remap helps:
	// the instance is dead (replaced if Replace.Enabled).
	minLevels int = 4

	// baseAcc is the delivered accuracy of a freshly tuned, unaged
	// instance.
	baseAcc float64 = 0.86
	// driftPerApp is the accuracy lost per served inference to read
	// disturb, recovered by the next retune.
	driftPerApp float64 = 1.5e-4
	// mapStress is the stress of one full remap pass (every device
	// reprogrammed).
	mapStress float64 = 0.5
	// levelPenalty is the accuracy lost as the usable-level fraction
	// decays: postTuneAcc = baseAcc - levelPenalty*(1 - usable/levels).
	levelPenalty float64 = 0.08

	// replaceTicks is the lead time of swapping in a fresh crossbar;
	// replaceCost its unit cost (tradeoff metric only).
	replaceTicks int     = 20
	replaceCost  float64 = 1
)

// Config parameterizes one fleet simulation: the knobs the speed
// tiers, the fleet-survival arms and the scenario files turn. The zero
// value is not runnable; start from Defaults (a spec file's fleet
// block overlays them).
type Config struct {
	// Instances is the crossbar population size.
	Instances int `json:"instances"`
	// Ticks is the simulation horizon in clock ticks.
	Ticks int `json:"ticks"`
	// Balancer selects the routing policy: "round-robin",
	// "least-aged" (fill the lowest-stress instance first) or
	// "hash-affinity" (requests stick to hash(key) mod N).
	Balancer string `json:"balancer"`

	Traffic Traffic `json:"traffic"`
	Service Service `json:"service"`
	Wear    Wear    `json:"wear"`
	Replace Replace `json:"replace"`
}

// Traffic shapes the synthetic request stream.
type Traffic struct {
	// Pattern selects the load envelope: "diurnal" (sinusoid),
	// "bursty" (on/off square wave) or "zipf" (steady; the skew lives
	// in the key mix).
	Pattern string `json:"pattern"`
	// Load is the fleet-wide mean arrival rate in requests per tick.
	Load float64 `json:"load"`
	// PeriodTicks is the diurnal period.
	PeriodTicks int `json:"period_ticks"`
	// Keys is the number of request classes (e.g. dataset classes for
	// hot-key affinity).
	Keys int `json:"keys"`
}

// Service models one instance's maintenance policy.
type Service struct {
	// TuneMargin is the retune eagerness: maintenance starts when
	// delivered accuracy falls below the accuracy floor + TuneMargin.
	// 0 = lazy (ride to the floor), larger = eager (more headroom,
	// more wear).
	TuneMargin float64 `json:"tune_margin"`
	// MaxIters is the per-retune iteration budget; beyond it the
	// instance remaps instead (the paper's lifetime criterion applied
	// as a maintenance policy).
	MaxIters float64 `json:"max_iters"`
}

// Wear couples load to the aging physics.
type Wear struct {
	// StressPerIter is the normalized programming stress added per
	// tuning iteration (the aging.Model stress unit).
	StressPerIter float64 `json:"stress_per_iter"`
}

// Replace is the end-of-life policy.
type Replace struct {
	// Enabled swaps a fresh crossbar in for a dead one.
	Enabled bool `json:"enabled"`
}

// Defaults returns a runnable configuration calibrated against the
// spec-layer default device (32-level TiOx) and accelerated aging
// model: instances die mid-horizon, so survival curves and the
// retune -> remap -> replace cascade are all exercised. keys sizes the
// request-class space (e.g. the fixture's class count).
func Defaults(keys int, fast bool) Config {
	c := Config{
		Instances: 48,
		Ticks:     4000,
		Balancer:  BalRoundRobin,
		Traffic: Traffic{
			Pattern:     PatternDiurnal,
			PeriodTicks: 200,
			Keys:        keys,
		},
		Service: Service{TuneMargin: 0.02, MaxIters: 150},
		Wear:    Wear{StressPerIter: 0.01},
		Replace: Replace{Enabled: true},
	}
	c.Traffic.Load = 0.6 * float64(capacity*c.Instances)
	if fast {
		c.Instances = 12
		c.Ticks = 600
		// Compress lifetimes into the short horizon: faster wear and a
		// tighter iteration budget (the same compression the lifetime
		// layer's fast tier applies), so the full retune -> remap ->
		// die cascade still plays out.
		c.Wear.StressPerIter = 0.03
		c.Service.MaxIters = 60
		c.Traffic.Load = 0.6 * float64(capacity*c.Instances)
		c.Traffic.PeriodTicks = 100
	}
	return c
}

// maxKeys bounds the precomputed key-weight table.
const maxKeys = 4096

// Validate reports every problem with a configuration, using
// spec-style JSON field paths rooted at "fleet".
func (c Config) Validate() error {
	var errs []string
	bad := func(path, format string, args ...any) {
		errs = append(errs, "fleet."+path+": "+fmt.Sprintf(format, args...))
	}
	if c.Instances < 1 {
		bad("instances", "need at least 1, got %d", c.Instances)
	}
	if c.Ticks < 1 {
		bad("ticks", "need at least 1, got %d", c.Ticks)
	}
	switch c.Balancer {
	case BalRoundRobin, BalLeastAged, BalHashAffinity:
	default:
		bad("balancer", "unknown policy %q (want %s, %s or %s)", c.Balancer, BalRoundRobin, BalLeastAged, BalHashAffinity)
	}
	switch c.Traffic.Pattern {
	case PatternDiurnal, PatternBursty, PatternZipf:
	default:
		bad("traffic.pattern", "unknown pattern %q (want %s, %s or %s)", c.Traffic.Pattern, PatternDiurnal, PatternBursty, PatternZipf)
	}
	if c.Traffic.Load <= 0 || math.IsNaN(c.Traffic.Load) {
		bad("traffic.load", "need a positive mean rate, got %g", c.Traffic.Load)
	}
	if c.Traffic.PeriodTicks < 2 {
		bad("traffic.period_ticks", "need at least 2, got %d", c.Traffic.PeriodTicks)
	}
	if c.Traffic.Keys < 1 || c.Traffic.Keys > maxKeys {
		bad("traffic.keys", "need 1..%d, got %d", maxKeys, c.Traffic.Keys)
	}
	if c.Service.TuneMargin < 0 {
		bad("service.tune_margin", "need >= 0, got %g", c.Service.TuneMargin)
	} else if targetAcc+c.Service.TuneMargin >= baseAcc {
		bad("service.tune_margin", "accuracy floor + tune_margin (%g) leaves a fresh instance no headroom below its base accuracy (%g)",
			targetAcc+c.Service.TuneMargin, baseAcc)
	}
	if c.Service.MaxIters < baseIters {
		bad("service.max_iters", "need >= the fresh-window retune cost (%g), got %g", baseIters, c.Service.MaxIters)
	}
	if c.Wear.StressPerIter < 0 {
		bad("wear.stress_per_iter", "need >= 0, got %g", c.Wear.StressPerIter)
	}
	if len(errs) == 0 {
		return nil
	}
	msg := errs[0]
	for _, e := range errs[1:] {
		msg += "\n" + e
	}
	return fmt.Errorf("%s", msg)
}
