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
//	costlier tuning -> remap -> ... -> usable levels < MinLevels ->
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

// Config parameterizes one fleet simulation. The zero value is not
// runnable; start from Defaults (or a spec file) and call Normalized
// before Validate/New.
type Config struct {
	// Instances is the crossbar population size.
	Instances int `json:"instances"`
	// Ticks is the simulation horizon in clock ticks.
	Ticks int `json:"ticks"`
	// Balancer selects the routing policy: "round-robin",
	// "least-aged" (fill the lowest-stress instance first) or
	// "hash-affinity" (requests stick to hash(key) mod N).
	Balancer string `json:"balancer"`
	// SamplePoints bounds the survival-curve resolution (points are
	// taken every Ticks/SamplePoints ticks).
	SamplePoints int `json:"sample_points"`

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
	// PeakFactor is the diurnal sinusoid amplitude as a fraction of
	// Load (0..1).
	PeakFactor float64 `json:"peak_factor"`
	// PeriodTicks is the diurnal period.
	PeriodTicks int `json:"period_ticks"`
	// BurstFactor multiplies Load during the on-phase of the bursty
	// pattern (>= 1).
	BurstFactor float64 `json:"burst_factor"`
	// BurstOn/BurstOff are the on/off phase lengths in ticks.
	BurstOn  int `json:"burst_on"`
	BurstOff int `json:"burst_off"`
	// Keys is the number of request classes (e.g. dataset classes for
	// hot-key affinity).
	Keys int `json:"keys"`
	// ZipfS is the Zipf skew exponent of the key mix; 0 = uniform.
	ZipfS float64 `json:"zipf_s"`
}

// Service models one instance's serving and maintenance behavior.
type Service struct {
	// Capacity is the requests one healthy instance serves per tick.
	Capacity int `json:"capacity"`
	// QueueCap bounds the per-instance backlog; arrivals beyond it are
	// dropped.
	QueueCap int `json:"queue_cap"`
	// TargetAcc is the delivered-accuracy floor the fleet maintains.
	TargetAcc float64 `json:"target_acc"`
	// TuneMargin is the retune eagerness: maintenance starts when
	// delivered accuracy falls below TargetAcc + TuneMargin. 0 = lazy
	// (ride to the floor), larger = eager (more headroom, more wear).
	TuneMargin float64 `json:"tune_margin"`
	// BaseIters is the iterations a retune needs on a freshly mapped
	// window.
	BaseIters float64 `json:"base_iters"`
	// MaxIters is the per-retune iteration budget; beyond it the
	// instance remaps instead (the paper's lifetime criterion applied
	// as a maintenance policy).
	MaxIters float64 `json:"max_iters"`
	// CostExponent shapes how tuning cost grows as the usable window
	// shrinks relative to the last remap: iters = BaseIters *
	// (usableAtRemap/usable)^CostExponent.
	CostExponent float64 `json:"cost_exponent"`
	// ItersPerTick converts tuning iterations to downtime ticks.
	ItersPerTick float64 `json:"iters_per_tick"`
	// RemapTicks is the extra downtime of an aging-aware remap (on top
	// of the post-remap tune).
	RemapTicks int `json:"remap_ticks"`
	// MinLevels is the usable-level floor below which no remap helps:
	// the instance is dead (replaced if Replace.Enabled).
	MinLevels int `json:"min_levels"`
}

// Wear couples load to the aging physics.
type Wear struct {
	// BaseAcc is the delivered accuracy of a freshly tuned, unaged
	// instance.
	BaseAcc float64 `json:"base_acc"`
	// DriftPerApp is the accuracy lost per served inference to read
	// disturb, recovered by the next retune.
	DriftPerApp float64 `json:"drift_per_app"`
	// StressPerIter is the normalized programming stress added per
	// tuning iteration (the aging.Model stress unit).
	StressPerIter float64 `json:"stress_per_iter"`
	// MapStress is the stress of one full remap pass (every device
	// reprogrammed).
	MapStress float64 `json:"map_stress"`
	// LevelPenalty is the accuracy lost as the usable-level fraction
	// decays: postTuneAcc = BaseAcc - LevelPenalty*(1 - usable/levels).
	LevelPenalty float64 `json:"level_penalty"`
}

// Replace is the end-of-life policy.
type Replace struct {
	// Enabled swaps a fresh crossbar in for a dead one.
	Enabled bool `json:"enabled"`
	// Ticks is the swap lead time.
	Ticks int `json:"ticks"`
	// Cost is the unit cost per replacement (tradeoff metric only).
	Cost float64 `json:"cost"`
}

// Defaults returns a runnable configuration calibrated against the
// spec-layer default device (32-level TiOx) and accelerated aging
// model: instances die mid-horizon, so survival curves and the
// retune -> remap -> replace cascade are all exercised. keys sizes the
// request-class space (e.g. the fixture's class count).
func Defaults(keys int, fast bool) Config {
	c := Config{
		Instances:    48,
		Ticks:        4000,
		Balancer:     BalRoundRobin,
		SamplePoints: 64,
		Traffic: Traffic{
			Pattern:     PatternDiurnal,
			PeakFactor:  0.5,
			PeriodTicks: 200,
			BurstFactor: 4,
			BurstOn:     20,
			BurstOff:    80,
			Keys:        keys,
			ZipfS:       1.1,
		},
		Service: Service{
			Capacity:     100,
			QueueCap:     500,
			TargetAcc:    0.76,
			TuneMargin:   0.02,
			BaseIters:    8,
			MaxIters:     150,
			CostExponent: 2,
			ItersPerTick: 50,
			RemapTicks:   5,
			MinLevels:    4,
		},
		Wear: Wear{
			BaseAcc:       0.86,
			DriftPerApp:   1.5e-4,
			StressPerIter: 0.01,
			MapStress:     0.5,
			LevelPenalty:  0.08,
		},
		Replace: Replace{Enabled: true, Ticks: 20, Cost: 1},
	}
	c.Traffic.Load = 0.6 * float64(c.Service.Capacity*c.Instances)
	if fast {
		c.Instances = 12
		c.Ticks = 600
		// Compress lifetimes into the short horizon: faster wear and a
		// tighter iteration budget (the same compression the lifetime
		// layer's fast tier applies), so the full retune -> remap ->
		// die cascade still plays out.
		c.Wear.StressPerIter = 0.03
		c.Service.MaxIters = 60
		c.Traffic.Load = 0.6 * float64(c.Service.Capacity*c.Instances)
		c.Traffic.PeriodTicks = 100
	}
	return c
}

// Normalized fills zero-valued fields with their documented defaults
// ("zero means default"), so sparse spec-file fleet blocks resolve to
// a fully explicit, fixed-point form. Idempotent.
func (c Config) Normalized() Config {
	d := Defaults(16, false)
	if c.Instances == 0 {
		c.Instances = d.Instances
	}
	if c.Ticks == 0 {
		c.Ticks = d.Ticks
	}
	if c.Balancer == "" {
		c.Balancer = d.Balancer
	}
	if c.SamplePoints == 0 {
		c.SamplePoints = d.SamplePoints
	}
	if c.Traffic.Pattern == "" {
		c.Traffic.Pattern = d.Traffic.Pattern
	}
	if c.Traffic.Load == 0 {
		c.Traffic.Load = 0.6 * float64(nonZero(c.Service.Capacity, d.Service.Capacity)*c.Instances)
	}
	if c.Traffic.PeakFactor == 0 {
		c.Traffic.PeakFactor = d.Traffic.PeakFactor
	}
	if c.Traffic.PeriodTicks == 0 {
		c.Traffic.PeriodTicks = d.Traffic.PeriodTicks
	}
	if c.Traffic.BurstFactor == 0 {
		c.Traffic.BurstFactor = d.Traffic.BurstFactor
	}
	if c.Traffic.BurstOn == 0 {
		c.Traffic.BurstOn = d.Traffic.BurstOn
	}
	if c.Traffic.BurstOff == 0 {
		c.Traffic.BurstOff = d.Traffic.BurstOff
	}
	if c.Traffic.Keys == 0 {
		c.Traffic.Keys = d.Traffic.Keys
	}
	// ZipfS 0 is meaningful (uniform keys): left as-is.
	if c.Service.Capacity == 0 {
		c.Service.Capacity = d.Service.Capacity
	}
	if c.Service.QueueCap == 0 {
		c.Service.QueueCap = 5 * c.Service.Capacity
	}
	if c.Service.TargetAcc == 0 {
		c.Service.TargetAcc = d.Service.TargetAcc
	}
	// TuneMargin 0 is meaningful (lazy policy): left as-is.
	if c.Service.BaseIters == 0 {
		c.Service.BaseIters = d.Service.BaseIters
	}
	if c.Service.MaxIters == 0 {
		c.Service.MaxIters = d.Service.MaxIters
	}
	if c.Service.CostExponent == 0 {
		c.Service.CostExponent = d.Service.CostExponent
	}
	if c.Service.ItersPerTick == 0 {
		c.Service.ItersPerTick = d.Service.ItersPerTick
	}
	if c.Service.RemapTicks == 0 {
		c.Service.RemapTicks = d.Service.RemapTicks
	}
	if c.Service.MinLevels == 0 {
		c.Service.MinLevels = d.Service.MinLevels
	}
	if c.Wear.BaseAcc == 0 {
		c.Wear.BaseAcc = d.Wear.BaseAcc
	}
	if c.Wear.DriftPerApp == 0 {
		c.Wear.DriftPerApp = d.Wear.DriftPerApp
	}
	if c.Wear.StressPerIter == 0 {
		c.Wear.StressPerIter = d.Wear.StressPerIter
	}
	if c.Wear.MapStress == 0 {
		c.Wear.MapStress = d.Wear.MapStress
	}
	if c.Wear.LevelPenalty == 0 {
		c.Wear.LevelPenalty = d.Wear.LevelPenalty
	}
	if c.Replace.Ticks == 0 {
		c.Replace.Ticks = d.Replace.Ticks
	}
	if c.Replace.Cost == 0 {
		c.Replace.Cost = d.Replace.Cost
	}
	return c
}

func nonZero(v, d int) int {
	if v != 0 {
		return v
	}
	return d
}

// maxKeys bounds the precomputed key-weight table.
const maxKeys = 4096

// Validate reports every problem with a normalized configuration,
// using spec-style JSON field paths rooted at "fleet".
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
	if c.SamplePoints < 1 {
		bad("sample_points", "need at least 1, got %d", c.SamplePoints)
	}
	switch c.Traffic.Pattern {
	case PatternDiurnal, PatternBursty, PatternZipf:
	default:
		bad("traffic.pattern", "unknown pattern %q (want %s, %s or %s)", c.Traffic.Pattern, PatternDiurnal, PatternBursty, PatternZipf)
	}
	if c.Traffic.Load <= 0 || math.IsNaN(c.Traffic.Load) {
		bad("traffic.load", "need a positive mean rate, got %g", c.Traffic.Load)
	}
	if c.Traffic.PeakFactor < 0 || c.Traffic.PeakFactor > 1 {
		bad("traffic.peak_factor", "need 0..1, got %g", c.Traffic.PeakFactor)
	}
	if c.Traffic.PeriodTicks < 2 {
		bad("traffic.period_ticks", "need at least 2, got %d", c.Traffic.PeriodTicks)
	}
	if c.Traffic.BurstFactor < 1 {
		bad("traffic.burst_factor", "need >= 1, got %g", c.Traffic.BurstFactor)
	}
	if c.Traffic.BurstOn < 1 || c.Traffic.BurstOff < 1 {
		bad("traffic.burst_on", "need positive on/off phases, got %d/%d", c.Traffic.BurstOn, c.Traffic.BurstOff)
	}
	if c.Traffic.Keys < 1 || c.Traffic.Keys > maxKeys {
		bad("traffic.keys", "need 1..%d, got %d", maxKeys, c.Traffic.Keys)
	}
	if c.Traffic.ZipfS < 0 {
		bad("traffic.zipf_s", "need >= 0, got %g", c.Traffic.ZipfS)
	}
	if c.Service.Capacity < 1 {
		bad("service.capacity", "need at least 1, got %d", c.Service.Capacity)
	}
	if c.Service.QueueCap < c.Service.Capacity {
		bad("service.queue_cap", "need >= capacity (%d), got %d", c.Service.Capacity, c.Service.QueueCap)
	}
	if c.Service.TargetAcc <= 0 || c.Service.TargetAcc >= 1 {
		bad("service.target_acc", "need (0,1), got %g", c.Service.TargetAcc)
	}
	if c.Service.TuneMargin < 0 {
		bad("service.tune_margin", "need >= 0, got %g", c.Service.TuneMargin)
	} else if c.Wear.BaseAcc > 0 && c.Service.TargetAcc+c.Service.TuneMargin >= c.Wear.BaseAcc {
		bad("service.tune_margin", "target_acc + tune_margin (%g) leaves a fresh instance no headroom below base_acc (%g)",
			c.Service.TargetAcc+c.Service.TuneMargin, c.Wear.BaseAcc)
	}
	if c.Service.BaseIters <= 0 {
		bad("service.base_iters", "need > 0, got %g", c.Service.BaseIters)
	}
	if c.Service.MaxIters < c.Service.BaseIters {
		bad("service.max_iters", "need >= base_iters (%g), got %g", c.Service.BaseIters, c.Service.MaxIters)
	}
	if c.Service.CostExponent <= 0 {
		bad("service.cost_exponent", "need > 0, got %g", c.Service.CostExponent)
	}
	if c.Service.ItersPerTick <= 0 {
		bad("service.iters_per_tick", "need > 0, got %g", c.Service.ItersPerTick)
	}
	if c.Service.RemapTicks < 1 {
		bad("service.remap_ticks", "need >= 1, got %d", c.Service.RemapTicks)
	}
	if c.Service.MinLevels < 2 {
		bad("service.min_levels", "need >= 2, got %d", c.Service.MinLevels)
	}
	if c.Wear.BaseAcc <= c.Service.TargetAcc || c.Wear.BaseAcc > 1 {
		bad("wear.base_acc", "need (target_acc, 1], got %g vs target %g", c.Wear.BaseAcc, c.Service.TargetAcc)
	}
	if c.Wear.DriftPerApp < 0 {
		bad("wear.drift_per_app", "need >= 0, got %g", c.Wear.DriftPerApp)
	}
	if c.Wear.StressPerIter < 0 {
		bad("wear.stress_per_iter", "need >= 0, got %g", c.Wear.StressPerIter)
	}
	if c.Wear.MapStress < 0 {
		bad("wear.map_stress", "need >= 0, got %g", c.Wear.MapStress)
	}
	if c.Wear.LevelPenalty < 0 {
		bad("wear.level_penalty", "need >= 0, got %g", c.Wear.LevelPenalty)
	}
	if c.Replace.Ticks < 1 {
		bad("replace.ticks", "need >= 1, got %d", c.Replace.Ticks)
	}
	if c.Replace.Cost < 0 {
		bad("replace.cost", "need >= 0, got %g", c.Replace.Cost)
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
