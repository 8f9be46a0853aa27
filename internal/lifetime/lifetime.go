// Package lifetime simulates the full deployment life of a
// memristor-mapped network and measures how many applications it can
// process before online tuning stops converging — the paper's lifetime
// metric (Section V).
//
// The simulation follows the paper's work flow (Fig. 5): the trained
// weights are mapped once at deployment; the crossbar then serves
// blocks of applications, accumulating recoverable read-disturb drift
// that per-application online tuning repairs. Tuning pulses age the
// devices irreversibly, so the iteration count per cycle creeps up as
// levels disappear. When tuning alone can no longer reach the target,
// the trained weights are re-mapped under the scenario's policy — the
// event where aging-aware range selection acts — and tuning retries.
// When even that fails within the iteration cap (paper: 150), the
// crossbar is dead and the lifetime is the number of applications
// served up to that point.
//
// The three scenarios of Table I differ in two inputs:
//
//	T+T   — conventionally trained weights, fresh-range mapping
//	ST+T  — skewed-trained weights,          fresh-range mapping
//	ST+AT — skewed-trained weights,          aging-aware mapping
//
// The trained network supplies the first axis (the caller passes a
// conventionally or skewed-trained network); Scenario selects the
// mapping policy for the second.
package lifetime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/telemetry"
	"memlife/internal/tensor"
	"memlife/internal/tuning"
)

// Scenario names the three evaluated configurations of Table I.
type Scenario int

const (
	// TT is traditional weight training plus online tuning.
	TT Scenario = iota
	// STT is skewed weight training plus online tuning.
	STT
	// STAT is skewed weight training with aging-aware mapping plus
	// online tuning.
	STAT
)

// String implements fmt.Stringer with the paper's labels.
func (s Scenario) String() string {
	switch s {
	case TT:
		return "T+T"
	case STT:
		return "ST+T"
	case STAT:
		return "ST+AT"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// ParseScenario is the inverse of Scenario.String; it is how scenario
// files and CLI flags name the Table I configurations.
func ParseScenario(s string) (Scenario, error) {
	switch s {
	case "T+T":
		return TT, nil
	case "ST+T":
		return STT, nil
	case "ST+AT":
		return STAT, nil
	default:
		return 0, fmt.Errorf("lifetime: unknown scenario %q (want T+T, ST+T, or ST+AT)", s)
	}
}

// MappingPolicy returns the hardware-mapping policy the scenario uses.
func (s Scenario) MappingPolicy() mapping.PolicyKind {
	if s == STAT {
		return mapping.AgingAware
	}
	return mapping.Fresh
}

// Config parameterizes a lifetime simulation. The JSON tags are the
// schema of the "lifetime" section of a scenario spec (internal/spec):
// the tuning, mapping, and fault sub-configs nest as JSON objects,
// while runtime-injected knobs (Seed, PolicyOverride, and the tuning
// target/seed the driver derives per cycle) are excluded. RunCtx uses
// a config as given: every field means what it says, zero included,
// except TargetAcc 0 (derive) and TraceStride 0 (the crossbar's own
// stride). DefaultConfig is the one home of the defaults.
type Config struct {
	// AppsPerCycle is the number of applications served per deployment
	// cycle (the granularity of the Fig. 10 x-axis).
	AppsPerCycle int64 `json:"apps_per_cycle"`
	// MaxCycles bounds the simulation.
	MaxCycles int `json:"max_cycles"`
	// TargetAcc is the accuracy online tuning must restore each cycle.
	// In a scenario file, 0 means "derive from the fresh-mapped
	// accuracy" (see internal/spec and SuggestTarget); by the time the
	// simulation runs it must be positive.
	TargetAcc float64 `json:"target_acc"`
	// DriftSigma is the read-disturb drift per cycle, relative to each
	// device's resistance (0.05 = 5%).
	DriftSigma float64 `json:"drift_sigma"`
	// EvalN is the number of training samples used to judge accuracy
	// and score aging-aware range candidates.
	EvalN int `json:"eval_n"`
	// Seed drives drift and batch shuffling.
	Seed int64 `json:"-"`
	// TraceStride overrides the representative-tracing density (the
	// paper's 1-of-9 corresponds to 3). Zero keeps the default.
	TraceStride int `json:"trace_stride"`
	// AgingVariability is the sigma of the lognormal device-to-device
	// endurance variation. Zero means identical devices.
	AgingVariability float64 `json:"aging_variability"`
	// BurnInStress injects this much prior-life stress into every
	// device before the simulation starts, so runs can begin from a
	// pre-aged array (where mapping-policy differences are visible).
	// Zero starts from a fresh array.
	BurnInStress float64 `json:"burn_in_stress"`
	// RemapIterFrac triggers a re-mapping when a cycle's tuning took at
	// least this fraction of the Tuning.MaxIters budget: tuning has
	// become expensive, so the controller re-deploys the trained
	// weights under the scenario's mapping policy. Zero remaps every
	// cycle.
	RemapIterFrac float64 `json:"remap_iter_frac"`
	// PolicyOverride, when non-nil, replaces the scenario's mapping
	// policy — used by the range-policy ablation.
	PolicyOverride *mapping.PolicyKind `json:"-"`
	// DegradedAccFrac enables graceful degradation: when even a
	// rescue remap cannot reach TargetAcc but the accuracy still
	// reaches DegradedAccFrac*TargetAcc, the array keeps serving at
	// that reduced floor instead of dying — a partially faulty array
	// has a measured, not assumed, end of life. Zero disables
	// degradation (any miss of TargetAcc is fatal, the paper's
	// original criterion); the fault experiments use 0.9.
	DegradedAccFrac float64 `json:"degraded_acc_frac"`
	// Tuning parameterizes the per-cycle online tuning runs. Its
	// MaxIters is the paper's 150-iteration lifetime criterion; its
	// TargetAcc and Seed fields are ignored — the driver injects the
	// effective target (graceful degradation lowers it) and a per-cycle
	// seed.
	Tuning tuning.Config `json:"tuning"`
	// Mapping parameterizes every (re)mapping pass. Its Policy field is
	// ignored — the scenario (or PolicyOverride) decides the policy.
	// Mapping.FaultAware makes every (re)mapping tolerate stuck
	// devices: range selection consults only healthy traced devices and
	// programming skips/compensates stuck cells. Disabling it while
	// faults are injected is the ablation arm of the fault-sweep
	// experiment.
	Mapping mapping.Config `json:"mapping"`
	// Faults configures device-fault injection (stuck-at devices,
	// transient programming failures, read-noise bursts); with every
	// rate and the hazard scale at zero, as DefaultConfig writes them,
	// the simulation runs clean-room with no faults. See internal/fault.
	Faults fault.Config `json:"faults"`
}

// Validate checks the "lifetime" section of a scenario spec, its nested
// tuning, mapping and faults sections included, and reports every
// violation at once, each prefixed with its JSON path relative to the
// section ("apps_per_cycle", "tuning.max_iters", ...). TargetAcc 0
// passes — a spec derives the target at run time — but RunCtx requires
// the injected target to be positive.
func (c Config) Validate() error {
	var errs []error
	fail := func(path, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	nest := func(section string, err error) {
		if err != nil {
			errs = append(errs, errors.New(section+"."+strings.ReplaceAll(err.Error(), "\n", "\n"+section+".")))
		}
	}
	if c.AppsPerCycle < 1 {
		fail("apps_per_cycle", "must be >= 1, got %d", c.AppsPerCycle)
	}
	if c.MaxCycles < 1 {
		fail("max_cycles", "must be >= 1, got %d", c.MaxCycles)
	} else if c.AppsPerCycle > math.MaxInt64/int64(c.MaxCycles) {
		fail("apps_per_cycle", "times max_cycles (%d) overflows the application count, got %d", c.MaxCycles, c.AppsPerCycle)
	}
	if c.TargetAcc < 0 || c.TargetAcc > 1 {
		fail("target_acc", "must be in [0,1] (0 = auto-derive), got %g", c.TargetAcc)
	}
	if c.DriftSigma < 0 {
		fail("drift_sigma", "must be non-negative, got %g", c.DriftSigma)
	}
	if c.EvalN < 1 {
		fail("eval_n", "must be >= 1, got %d", c.EvalN)
	}
	if c.TraceStride < 0 {
		fail("trace_stride", "must be non-negative, got %d", c.TraceStride)
	}
	if c.AgingVariability < 0 {
		fail("aging_variability", "must be non-negative, got %g", c.AgingVariability)
	}
	if c.BurnInStress < 0 {
		fail("burn_in_stress", "must be non-negative, got %g", c.BurnInStress)
	}
	if c.RemapIterFrac < 0 || c.RemapIterFrac > 1 {
		fail("remap_iter_frac", "must be in [0,1], got %g", c.RemapIterFrac)
	}
	if c.DegradedAccFrac < 0 || c.DegradedAccFrac >= 1 {
		fail("degraded_acc_frac", "must be in [0,1), got %g", c.DegradedAccFrac)
	}
	nest("tuning", c.Tuning.Validate())
	nest("mapping", c.Mapping.Validate())
	if err := c.Faults.Validate(); err != nil {
		fail("faults", "%v", err)
	}
	return errors.Join(errs...)
}

// Normalized returns c unchanged: RunCtx uses a config as given.
//
// Deprecated: the method stays only while the benchmark still calls
// it; ROADMAP item 2's benchmark change deletes it.
func (c Config) Normalized() Config { return c }

// DefaultConfig returns the full-budget lifetime configuration of the
// Table I / Fig. 10 experiments, every field written out. It is the one
// home of the lifetime tree's defaults: spec.Defaults builds on it.
// TargetAcc 0 derives the target from the fresh-mapped accuracy and
// Seed 0 stands for the run seed a spec injects.
func DefaultConfig() Config {
	return Config{
		AppsPerCycle:     1_000_000,
		MaxCycles:        150,
		TargetAcc:        0,
		DriftSigma:       0.05,
		EvalN:            96,
		Seed:             0,
		TraceStride:      0,
		AgingVariability: 0.2,
		BurnInStress:     0,
		RemapIterFrac:    0.12,
		DegradedAccFrac:  0,
		Tuning: tuning.Config{
			MaxIters:    150,
			BatchSize:   32,
			StepFrac:    0.25,
			Patience:    10,
			Policy:      "",
			RetryBudget: 2,
		},
		Mapping: mapping.Config{
			MaxCandidates: 8,
			MinLevels:     4,
			FaultAware:    false,
		},
		Faults: fault.Config{
			StuckRate:      0,
			LRSFrac:        0.5,
			TransientProb:  0,
			HazardScale:    0,
			HazardSpread:   0.5,
			ReadBurstProb:  0,
			ReadBurstSigma: 0.02,
		},
	}
}

// CycleRecord captures the state after one deployment cycle.
type CycleRecord struct {
	Cycle     int
	Apps      int64 // cumulative applications served after this cycle
	TuneIters int
	Converged bool
	Acc       float64
	// Remapped reports whether this cycle needed a rescue remapping
	// (tuning alone could not reach the target).
	Remapped bool
	// MapClipped counts devices whose mapping target was out of reach
	// during this cycle's remapping (0 when no remap happened).
	MapClipped int
	// ConvUpper and FCUpper are the mean aged upper resistance bounds
	// by layer kind (Fig. 11).
	ConvUpper, FCUpper float64
	// Stuck is the number of permanently stuck devices network-wide
	// at the end of this cycle (initial defects plus wear-out).
	Stuck int
	// Retries counts tuning pulses re-attempted after transient
	// programming failures this cycle (their stress is real).
	Retries int64
	// Degraded marks a cycle served below TargetAcc but at or above
	// the graceful-degradation floor.
	Degraded bool
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario Scenario
	Records  []CycleRecord
	// Lifetime is the number of applications served before failure
	// (or before the simulation was cut off at MaxCycles).
	Lifetime int64
	// Failed reports whether the array actually failed; false means
	// the lifetime value is right-censored at MaxCycles.
	Failed bool
	// DegradedAtCycle is the first cycle that entered degraded
	// operation (served below TargetAcc but at or above the reduced
	// floor); 0 when the array never degraded.
	DegradedAtCycle int
	// FinalAcc is the evaluation accuracy at the end of the run — the
	// accuracy floor a partially faulty array actually delivered.
	FinalAcc float64
}

// RunCtx simulates the deployment life of net under the scenario. The
// network's current weights are the mapping targets; trainDS supplies
// tuning batches and the evaluation subset. net is never written: the
// run maps and tunes a private clone (crossbar.NewMappedNetwork), so
// any number of runs may share one trained network, concurrently too.
// The simulation checks ctx before the initial mapping and at every
// deployment cycle, returning ctx.Err() (wrapped) as soon as the
// context is cancelled or times out. A cancelled run's partial Result
// is not meaningful.
//
// Every run emits one "lifetime/run" trace span and, per deployment
// cycle, one record on the "lifetime/timeline" instrument plus a
// "lifetime/cycle" trace event (see telemetry.go). Telemetry never
// feeds back into the simulation: results are bit-identical with it on
// or off.
func RunCtx(ctx context.Context, net *nn.Network, trainDS *dataset.Dataset, sc Scenario, p device.Params, model aging.Model, tempK float64, cfg Config) (Result, error) {
	sp := telemetry.StartSpan("lifetime/run")
	res, err := runCtx(ctx, net, trainDS, sc, p, model, tempK, cfg)
	recordRunTel(res, err)
	sp.End(telemetry.Attrs{
		"scenario": res.Scenario.String(),
		"lifetime": res.Lifetime,
		"failed":   res.Failed,
		"cycles":   len(res.Records),
	})
	return res, err
}

func runCtx(ctx context.Context, net *nn.Network, trainDS *dataset.Dataset, sc Scenario, p device.Params, model aging.Model, tempK float64, cfg Config) (Result, error) {
	res := Result{Scenario: sc}
	if err := cfg.Validate(); err != nil {
		return res, fmt.Errorf("lifetime: %w", err)
	}
	if cfg.TargetAcc == 0 {
		return res, fmt.Errorf("lifetime: target_acc must be positive at run time (derive it with SuggestTarget)")
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("lifetime: %w", err)
	}
	mn, err := crossbar.NewMappedNetwork(net, p, model, tempK)
	if err != nil {
		return res, err
	}
	if cfg.TraceStride > 0 {
		mn.SetTraceStride(cfg.TraceStride)
	}
	evalDS := trainDS.Subset(cfg.EvalN)
	evalBatch := evalDS.Batches(evalDS.Len(), nil)[0]
	rng := tensor.NewRNG(cfg.Seed)
	if cfg.AgingVariability > 0 {
		mn.RandomizeAging(cfg.AgingVariability, rng.Split())
	}
	if cfg.BurnInStress > 0 {
		mn.AddStress(cfg.BurnInStress)
	}
	if cfg.Faults.Enabled() {
		if err := mn.SetFaults(cfg.Faults); err != nil {
			return res, fmt.Errorf("lifetime: %w", err)
		}
	}

	policy := sc.MappingPolicy()
	if cfg.PolicyOverride != nil {
		policy = *cfg.PolicyOverride
	}
	mapCfg := cfg.Mapping
	mapCfg.Policy = policy

	// Initial deployment: one mapping pass (Fig. 5 work flow).
	if _, err := mapping.Map(mn, mapCfg, evalBatch.X, evalBatch.Y); err != nil {
		return res, fmt.Errorf("lifetime: initial mapping: %w", err)
	}

	tune := func(cycle int, target float64) (tuning.Result, error) {
		tc := cfg.Tuning
		tc.TargetAcc = target
		tc.Seed = cfg.Seed + int64(cycle)
		return tuning.Tune(mn, trainDS, evalBatch.X, evalBatch.Y, tc)
	}

	// Graceful degradation: effTarget starts at TargetAcc; when even a
	// rescue remap cannot restore it but the accuracy holds the floor,
	// the array keeps serving with effTarget lowered to the floor.
	effTarget := cfg.TargetAcc
	floor := cfg.TargetAcc * cfg.DegradedAccFrac

	var apps int64
	for cycle := 1; cycle <= cfg.MaxCycles; cycle++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("lifetime: cycle %d: %w", cycle, err)
		}
		// Applications run: read-disturb drift accumulates, then the
		// per-application online tuning restores the target accuracy
		// (Section II-C). Stage 1: retune.
		mn.Drift(cfg.DriftSigma, rng)
		if p.Drift.Enabled() {
			// Spontaneous conductance state drift (power-law relaxation
			// toward Gmin); one interval per deployment cycle.
			mn.StateDrift(p.Drift.DecayFactor(cycle))
		}
		tuneRes, err := tune(cycle, effTarget)
		if err != nil {
			return res, fmt.Errorf("lifetime: cycle %d: %w", cycle, err)
		}
		rec := CycleRecord{
			Cycle:     cycle,
			TuneIters: tuneRes.Iterations,
			Converged: tuneRes.Converged,
			Acc:       tuneRes.FinalAcc,
			Retries:   tuneRes.Retries,
		}
		if !tuneRes.Converged || float64(tuneRes.Iterations) >= cfg.RemapIterFrac*float64(cfg.Tuning.MaxIters) {
			// Stage 2: tuning is failing or has become expensive —
			// remap the trained weights (under the scenario's policy,
			// fault-aware when configured) and retry tuning.
			rec.Remapped = true
			mapRes, err := mapping.Map(mn, mapCfg, evalBatch.X, evalBatch.Y)
			if err != nil {
				return res, fmt.Errorf("lifetime: cycle %d remap: %w", cycle, err)
			}
			rec.MapClipped = mapRes.Stats.Clipped
			retry, err := tune(cycle+1_000_000, effTarget)
			if err != nil {
				return res, fmt.Errorf("lifetime: cycle %d retry: %w", cycle, err)
			}
			rec.TuneIters += retry.Iterations
			rec.Converged = retry.Converged
			rec.Acc = retry.FinalAcc
			rec.Retries += retry.Retries
		}
		rec.ConvUpper, rec.FCUpper = mn.MeanUpperBoundByKind()
		if !rec.Converged && floor > 0 && effTarget > floor && rec.Acc >= floor {
			// Stage 3: even remapping missed the target, but the
			// array still clears the reduced accuracy floor — accept
			// degraded operation instead of declaring death.
			effTarget = floor
			rec.Converged = true
			rec.Degraded = true
			if res.DegradedAtCycle == 0 {
				res.DegradedAtCycle = cycle
			}
		}
		// Service wear accumulates into the fault hazard: heavily
		// stressed devices cross their capacity and stick permanently.
		mn.AdvanceFaults()
		lrs, hrs := mn.StuckCounts()
		rec.Stuck = lrs + hrs
		res.FinalAcc = rec.Acc
		if !rec.Converged {
			// Every degradation stage is exhausted: failure.
			rec.Apps = apps
			recordCycleTel(rec)
			res.Records = append(res.Records, rec)
			res.Lifetime = apps
			res.Failed = true
			return res, nil
		}
		if res.DegradedAtCycle != 0 {
			rec.Degraded = true
		}
		apps += cfg.AppsPerCycle
		rec.Apps = apps
		recordCycleTel(rec)
		res.Records = append(res.Records, rec)
	}
	res.Lifetime = apps
	res.Failed = false
	return res, nil
}

// SuggestTarget returns a target accuracy for lifetime runs: the
// hardware accuracy right after an ideal fresh mapping of the trained
// network, minus margin. Matching the paper's setup, the target is
// chosen so a healthy array converges within a handful of iterations.
// Like RunCtx, it maps a private clone and never writes net.
func SuggestTarget(net *nn.Network, trainDS *dataset.Dataset, p device.Params, model aging.Model, tempK float64, evalN int, margin float64) (float64, error) {
	mn, err := crossbar.NewMappedNetwork(net, p, model, tempK)
	if err != nil {
		return 0, err
	}
	if _, err := mapping.Map(mn, mapping.Config{Policy: mapping.Fresh}, nil, nil); err != nil {
		return 0, err
	}
	evalDS := trainDS.Subset(evalN)
	b := evalDS.Batches(evalDS.Len(), nil)[0]
	acc, err := mn.Accuracy(b.X, b.Y)
	if err != nil {
		return 0, err
	}
	target := acc - margin
	if target <= 0 {
		return 0, fmt.Errorf("lifetime: suggested target %g is not positive (fresh accuracy %g, margin %g)", target, acc, margin)
	}
	if target > 1 {
		target = 1
	}
	return target, nil
}
