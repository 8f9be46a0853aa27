// Package spec defines the unified scenario specification: one
// versioned, serializable, validatable, hashable Spec that composes
// every layer's parameters — device technology, aging calibration,
// fault injection, mapping, tuning, the lifetime budget, the
// network/dataset fixture with its skewed-training constants, and run
// options. A Spec fully determines one lifetime study; everything a
// registered experiment or a campaign shard runs is a base Spec plus a
// small transform.
//
// Resolution is a three-stage chain:
//
//  1. Defaults(fixture, fast) — the package defaults, with every
//     "zero means X" fallback of the underlying packages already
//     resolved (the serialized form is the effective form);
//  2. a scenario file (JSON, strict: unknown fields are rejected)
//     overlaid on the defaults — sparse files override only what they
//     mention;
//  3. CLI flag overrides applied last.
//
// Fingerprint hashes the canonical (key-sorted) JSON encoding of the
// resolved Spec, so two configurations share a fingerprint iff they
// resolve to the same parameters. The experiments bundle cache and the
// campaign checkpoint journal key on these hashes, which makes cache
// collisions across differing configurations impossible.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fleet"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
)

// Version is the current spec schema version. Files declaring a
// different version are rejected, so old files fail loudly instead of
// silently resolving against a changed schema.
const Version = 1

// FixtureLeNet and FixtureVGG name the two built-in network/dataset
// test cases of Table I.
const (
	FixtureLeNet = "lenet"
	FixtureVGG   = "vgg"
)

// SkewParams are the skewed-training constants of Table II: the
// reference weight beta_i = BetaFactor * sigma_i of each layer, and the
// two segment penalties.
type SkewParams struct {
	BetaFactor float64 `json:"beta_factor"`
	Lambda1    float64 `json:"lambda1"`
	Lambda2    float64 `json:"lambda2"`
}

// LeNetSkew returns the LeNet-5 setting: lambda1 >> lambda2, as in the
// paper's Table II. The reference weight sits at the left edge of the
// conventional distribution (beta_i = -0.5 * sigma_i): the strong
// lambda1 penalty forms a wall below beta while the weak lambda2 drags
// the mass down towards it, producing the left-concentrated skewed
// distribution of Fig. 6(a) whose weights map to small conductances.
func LeNetSkew() SkewParams { return SkewParams{BetaFactor: -0.5, Lambda1: 0.5, Lambda2: 0.005} }

// VGGSkew returns the VGG-16 setting: the paper sets lambda1 == lambda2
// for VGG-16 because its depth makes accuracy more sensitive to the
// asymmetric penalty.
func VGGSkew() SkewParams { return SkewParams{BetaFactor: -0.5, Lambda1: 0.01, Lambda2: 0.01} }

// Fixture selects the network/dataset test case and its skewed-training
// constants.
type Fixture struct {
	// Name is "lenet" or "vgg".
	Name string `json:"name"`
	// Skew holds the Table II constants used to train the skewed
	// variant of the fixture.
	Skew SkewParams `json:"skew"`
}

// Run holds run-shaping options that are not simulation physics.
type Run struct {
	// Fast shrinks networks, datasets and budgets so a run finishes in
	// seconds; full mode reproduces the reported numbers. Fast selects
	// a different set of Defaults, so a file that sets it influences
	// stage 1 of the resolution chain as well.
	Fast bool `json:"fast"`
	// Seed makes training, mapping, drift and fault draws reproducible.
	Seed int64 `json:"seed"`
	// TargetMargin is subtracted from the fresh-mapped hardware
	// accuracy when the tuning target is auto-derived
	// (lifetime.target_acc == 0); see lifetime.SuggestTarget.
	TargetMargin float64 `json:"target_margin"`
	// TargetScale multiplies the auto-derived target; the fault sweep
	// serves at 0.9x the clean target so defect density, not target
	// tightness, sets the lifetime.
	TargetScale float64 `json:"target_scale"`
	// Workers is unread: every forward pass runs over the kernel token
	// pool.
	//
	// Deprecated: the field stays only while the benchmark still sets
	// it; ROADMAP item 2's benchmark change deletes it.
	Workers int `json:"-"`
}

// Spec is the unified scenario specification.
type Spec struct {
	// Version pins the schema; see the package constant.
	Version int `json:"version"`
	// Name optionally labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Notes is free-form documentation carried with the file.
	Notes string `json:"notes,omitempty"`
	// Fixture picks the network/dataset test case.
	Fixture Fixture `json:"fixture"`
	// Scenario is the Table I configuration: "T+T", "ST+T" or "ST+AT".
	Scenario string `json:"scenario"`
	// Policy optionally overrides the scenario's mapping policy
	// ("fresh", "aging-aware", "worst-case", "mean-bound"); empty lets
	// the scenario decide. Used by the range-policy ablation.
	Policy string `json:"policy,omitempty"`
	// Device is the memristor technology.
	Device device.Params `json:"device"`
	// Aging is the aging-model calibration.
	Aging aging.Model `json:"aging"`
	// TempK is the operating temperature in Kelvin.
	TempK float64 `json:"temp_k"`
	// Lifetime is the simulation budget and the nested fault, mapping
	// and tuning sections.
	Lifetime lifetime.Config `json:"lifetime"`
	// Fleet, when present, switches the scenario from a single-crossbar
	// lifetime study to a fleet simulation: a population of crossbar
	// instances behind a load balancer under synthetic traffic (see
	// internal/fleet). The pointer is omitted from serialization when
	// nil, so non-fleet specs keep their historical fingerprints.
	Fleet *fleet.Config `json:"fleet,omitempty"`
	// Run holds seed, fast mode and target-derivation options.
	Run Run `json:"run"`
}

// Defaults returns the fully resolved default Spec for a fixture at the
// given scale — the stage-1 base of the resolution chain and the single
// home of every "zero means X" fallback the simulation packages used to
// re-derive at each call site. The returned spec serializes with all
// effective values explicit (e.g. tuning patience 10, mapping
// max_candidates 8), so a dumped spec is self-describing.
func Defaults(fixture string, fast bool) Spec {
	lt := lifetime.DefaultConfig()
	lt.TargetAcc = 0 // auto-derive from the fresh-mapped accuracy
	lt.Seed = 0      // injected from Run.Seed at run time
	lt.AppsPerCycle = 1_000_000
	lt.MaxCycles = 150
	if fast {
		lt.MaxCycles = 60
		lt.Tuning.MaxIters = 40
		lt.EvalN = 64
	}
	lt = lt.Normalized()

	skew := LeNetSkew()
	if fixture == FixtureVGG {
		skew = VGGSkew()
	}

	m := aging.DefaultModel()
	// Accelerated calibration: crossbars fail within tens of simulated
	// deployment cycles instead of thousands — the same timeline
	// compression the paper applies when it simulates 4x10^7
	// applications against a 150-iteration tuning budget. Relative
	// lifetimes between scenarios are unaffected by the common factor.
	m.A = 8000
	m.B = 1000

	return Spec{
		Version:  Version,
		Fixture:  Fixture{Name: fixture, Skew: skew},
		Scenario: lifetime.STAT.String(),
		Device:   device.Params32(),
		Aging:    m,
		TempK:    300,
		Lifetime: lt,
		Run: Run{
			Fast:         fast,
			Seed:         1,
			TargetMargin: 0.02,
			TargetScale:  1,
		},
	}
}

// DefaultFleet derives the fleet configuration the fleet-survival
// experiment uses when a scenario has no explicit fleet block: fleet
// defaults in the spec's speed tier, with the traffic key space sized
// to the fixture's class count (each key models one request class).
func DefaultFleet(s Spec) fleet.Config {
	keys := 10 // lenet classes
	if s.Fixture.Name == FixtureVGG {
		keys = 50
	}
	return fleet.Defaults(keys, s.Run.Fast)
}

// Validate checks the whole spec and reports every violation at once,
// each prefixed with the JSON field path of the offending value.
func (s Spec) Validate() error {
	var errs []error
	fail := func(path, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...)))
	}

	if s.Version != Version {
		fail("version", "unsupported spec version %d (this build understands %d)", s.Version, Version)
	}
	switch s.Fixture.Name {
	case FixtureLeNet, FixtureVGG:
	default:
		fail("fixture.name", "unknown fixture %q (want %q or %q)", s.Fixture.Name, FixtureLeNet, FixtureVGG)
	}
	if s.Fixture.Skew.Lambda1 < 0 || s.Fixture.Skew.Lambda2 < 0 {
		fail("fixture.skew", "segment penalties must be non-negative, got lambda1=%g lambda2=%g",
			s.Fixture.Skew.Lambda1, s.Fixture.Skew.Lambda2)
	}
	if _, err := lifetime.ParseScenario(s.Scenario); err != nil {
		fail("scenario", "%v", err)
	}
	if s.Policy != "" {
		if _, err := mapping.ParsePolicy(s.Policy); err != nil {
			fail("policy", "%v", err)
		}
	}
	if err := s.Device.Validate(); err != nil {
		fail("device", "%v", err)
	}
	if err := s.Aging.Validate(); err != nil {
		fail("aging", "%v", err)
	}
	if s.TempK <= 0 {
		fail("temp_k", "operating temperature must be positive Kelvin, got %g", s.TempK)
	}

	if err := s.Lifetime.Validate(); err != nil {
		// lifetime.Config.Validate owns every lifetime.* rule and
		// reports paths relative to its section.
		errs = append(errs, errors.New("lifetime."+strings.ReplaceAll(err.Error(), "\n", "\nlifetime.")))
	}

	if s.Fleet != nil {
		if err := s.Fleet.Validate(); err != nil {
			// fleet.Config.Validate already prefixes each line with its
			// "fleet." JSON path.
			errs = append(errs, err)
		}
	}

	if s.Run.Seed == 0 {
		fail("run.seed", "must be non-zero (seed 0 is reserved to catch unset specs)")
	}
	if s.Run.TargetMargin < 0 || s.Run.TargetMargin >= 1 {
		fail("run.target_margin", "must be in [0,1), got %g", s.Run.TargetMargin)
	}
	if s.Run.TargetScale <= 0 || s.Run.TargetScale > 1 {
		fail("run.target_scale", "must be in (0,1], got %g", s.Run.TargetScale)
	}
	return errors.Join(errs...)
}

// LifetimeConfig converts the spec into the lifetime.Config one run
// needs: target is the effective tuning target (the auto-derivation
// from TargetAcc == 0 is the caller's job, since it needs a trained
// bundle), the run seed is injected, and a
// non-empty Policy becomes the PolicyOverride.
func (s Spec) LifetimeConfig(target float64) lifetime.Config {
	cfg := s.Lifetime
	cfg.TargetAcc = target
	cfg.Seed = s.Run.Seed
	if s.Policy != "" {
		if p, err := mapping.ParsePolicy(s.Policy); err == nil {
			cfg.PolicyOverride = &p
		}
	}
	return cfg
}

// ScenarioKind parses the spec's scenario label.
func (s Spec) ScenarioKind() (lifetime.Scenario, error) {
	return lifetime.ParseScenario(s.Scenario)
}

// canonicalJSON re-encodes a JSON document with all object keys sorted
// (encoding/json sorts map keys), yielding one canonical byte form per
// logical document.
func canonicalJSON(raw []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// Canonical returns the canonical (key-sorted, compact) JSON encoding
// of the spec — the byte form Fingerprint hashes.
func (s Spec) Canonical() ([]byte, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("spec: marshal: %w", err)
	}
	return canonicalJSON(raw)
}

// Fingerprint returns a short stable hash of the canonical encoding.
// Two specs share a fingerprint iff their resolved, schema-visible
// parameters are identical; runtime-injected values (lifetime seeds,
// the per-cycle tuning target) never participate.
func (s Spec) Fingerprint() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:8]), nil
}

// JobFingerprint keys the served result store: the spec fingerprint
// for a single-seed job, extended with the Monte Carlo seed count when
// a job asks for more than one. Two submissions share a key iff they
// resolve to the same parameters *and* the same sample size — which is
// exactly when their results are interchangeable bytes, making the key
// safe for content addressing.
func (s Spec) JobFingerprint(seeds int) (string, error) {
	fp, err := s.Fingerprint()
	if err != nil {
		return "", err
	}
	if seeds <= 1 {
		return fp, nil
	}
	return fmt.Sprintf("%s-s%d", fp, seeds), nil
}

// FixtureFingerprint hashes only the parameters that shape the trained
// fixture bundle: the fixture section (network choice and skew
// constants) plus the fast flag and seed. Experiments differing only in
// simulation-phase parameters share a trained bundle; experiments
// differing in anything that changes training can never collide.
func (s Spec) FixtureFingerprint() (string, error) {
	raw, err := json.Marshal(struct {
		Fixture Fixture `json:"fixture"`
		Fast    bool    `json:"fast"`
		Seed    int64   `json:"seed"`
	}{s.Fixture, s.Run.Fast, s.Run.Seed})
	if err != nil {
		return "", fmt.Errorf("spec: marshal fixture: %w", err)
	}
	c, err := canonicalJSON(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:8]), nil
}

// Overrides carries CLI flag values for stage 3 of the resolution
// chain; nil fields were not set on the command line and leave the
// file/default value untouched.
type Overrides struct {
	Fast     *bool
	Seed     *int64
	Scenario *string
	Policy   *string
	// DeviceModel overrides the device-physics model kind
	// (device.model.kind): "linear", "mms", "yacopcic" or "diffusive".
	// Variation sigmas and the drift block come from the file/defaults.
	DeviceModel *string
	// TuningPolicy overrides the tuning pulse-selection policy
	// (lifetime.tuning.policy): "sign", "recalib" or "minreprog".
	TuningPolicy *string
}

func (o Overrides) apply(s *Spec) {
	if o.Fast != nil {
		s.Run.Fast = *o.Fast
	}
	if o.Seed != nil {
		s.Run.Seed = *o.Seed
	}
	if o.Scenario != nil {
		s.Scenario = *o.Scenario
	}
	if o.Policy != nil {
		s.Policy = *o.Policy
	}
	if o.DeviceModel != nil {
		s.Device.Model.Kind = *o.DeviceModel
	}
	if o.TuningPolicy != nil {
		s.Lifetime.Tuning.Policy = *o.TuningPolicy
	}
}

// probe is the loose pre-pass of Resolve: before the strict decode can
// overlay the file onto the right defaults, the resolver has to know
// which defaults the file wants — the fixture name picks the skew
// constants and the fast flag picks the budget tier.
type probe struct {
	Fixture struct {
		Name *string `json:"name"`
	} `json:"fixture"`
	Run struct {
		Fast *bool `json:"fast"`
	} `json:"run"`
}

// ResolveBytes runs the full resolution chain over an in-memory
// scenario document: probe the file for fixture/fast (flag overrides
// win even here, so defaults and final values can't disagree), build
// Defaults, strictly overlay the file (unknown fields are errors),
// apply the flag overrides, validate. A nil or empty raw skips stage 2.
func ResolveBytes(raw []byte, o Overrides) (Spec, error) {
	fixture := FixtureLeNet
	fast := false
	if len(raw) > 0 {
		var p probe
		if err := json.Unmarshal(raw, &p); err != nil {
			return Spec{}, fmt.Errorf("spec: parse scenario: %w", err)
		}
		if p.Fixture.Name != nil {
			fixture = *p.Fixture.Name
		}
		if p.Run.Fast != nil {
			fast = *p.Run.Fast
		}
	}
	if o.Fast != nil {
		fast = *o.Fast
	}

	s := Defaults(fixture, fast)
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return Spec{}, fmt.Errorf("spec: parse scenario: %w", err)
		}
	}
	o.apply(&s)
	if s.Fleet != nil {
		// A sparse fleet block resolves its "zero means default"
		// fallbacks here, so the dumped spec is explicit and a
		// fixed point under re-resolution.
		norm := s.Fleet.Normalized()
		s.Fleet = &norm
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("spec: invalid scenario:\n%w", err)
	}
	return s, nil
}

// ResolveFile is ResolveBytes over a scenario file; an empty path
// resolves pure defaults plus overrides.
func ResolveFile(path string, o Overrides) (Spec, error) {
	var raw []byte
	if path != "" {
		var err error
		raw, err = os.ReadFile(path)
		if err != nil {
			return Spec{}, fmt.Errorf("spec: %w", err)
		}
	}
	s, err := ResolveBytes(raw, o)
	if err != nil && path != "" {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, err
}

// Dump renders the spec as indented JSON (trailing newline included) —
// the -dump-spec output, suitable for feeding back via -scenario.
func (s Spec) Dump() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: marshal: %w", err)
	}
	return append(b, '\n'), nil
}
