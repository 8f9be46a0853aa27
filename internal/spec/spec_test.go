package spec

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
)

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDefaultsResolvedAndValid: the stage-1 base must validate as-is and
// carry every "zero means X" fallback already resolved, so the
// serialized form is the effective form.
func TestDefaultsResolvedAndValid(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		fast    bool
	}{
		{FixtureLeNet, false},
		{FixtureLeNet, true},
		{FixtureVGG, false},
		{FixtureVGG, true},
	} {
		s := Defaults(tc.fixture, tc.fast)
		if err := s.Validate(); err != nil {
			t.Fatalf("Defaults(%q, fast=%v) must validate: %v", tc.fixture, tc.fast, err)
		}
		lt := s.Lifetime
		if lt.Tuning.Patience != 10 || lt.Tuning.RetryBudget != 2 || lt.Tuning.StepFrac != 0.25 {
			t.Fatalf("tuning fallbacks must be resolved in defaults, got %+v", lt.Tuning)
		}
		if lt.Mapping.MaxCandidates != 8 || lt.Mapping.MinLevels != 4 {
			t.Fatalf("mapping fallbacks must be resolved in defaults, got %+v", lt.Mapping)
		}
		if lt.Faults.LRSFrac != 0.5 || lt.Faults.HazardSpread != 0.5 {
			t.Fatalf("fault fallbacks must be resolved in defaults, got %+v", lt.Faults)
		}
		if lt.RemapIterFrac == 0 {
			t.Fatal("lifetime remap fraction fallback must be resolved in defaults")
		}
	}
	if Defaults(FixtureLeNet, false).Fixture.Skew != LeNetSkew() {
		t.Fatal("lenet defaults must carry the LeNet skew constants")
	}
	if Defaults(FixtureVGG, false).Fixture.Skew != VGGSkew() {
		t.Fatal("vgg defaults must carry the VGG skew constants")
	}
}

// TestResolvePrecedence is the three-stage chain contract: package
// defaults lose to scenario-file values, which lose to explicit flag
// overrides — checked field by field across the stages.
func TestResolvePrecedence(t *testing.T) {
	file := `{
		"version": 1,
		"fixture": {"name": "lenet"},
		"scenario": "T+T",
		"temp_k": 310,
		"lifetime": {"max_cycles": 33},
		"run": {"fast": true, "seed": 7}
	}`

	t.Run("defaults only", func(t *testing.T) {
		s, err := ResolveBytes(nil, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		d := Defaults(FixtureLeNet, false)
		if s != d {
			t.Fatalf("empty resolution must equal defaults:\ngot  %+v\nwant %+v", s, d)
		}
	})

	t.Run("file over defaults", func(t *testing.T) {
		s, err := ResolveBytes([]byte(file), Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Scenario != "T+T" || s.TempK != 310 || s.Lifetime.MaxCycles != 33 || s.Run.Seed != 7 {
			t.Fatalf("file values must override defaults, got scenario=%q temp=%g cycles=%d seed=%d",
				s.Scenario, s.TempK, s.Lifetime.MaxCycles, s.Run.Seed)
		}
		// run.fast=true in the file must have selected the fast defaults
		// tier for everything the file does not mention.
		fast := Defaults(FixtureLeNet, true)
		if s.Lifetime.Tuning.MaxIters != fast.Lifetime.Tuning.MaxIters || s.Lifetime.EvalN != fast.Lifetime.EvalN {
			t.Fatalf("file fast=true must pick the fast defaults tier, got tuning=%+v evalN=%d",
				s.Lifetime.Tuning, s.Lifetime.EvalN)
		}
		// Fields the file omits keep their (tiered) defaults.
		if s.Device != fast.Device || s.Aging != fast.Aging {
			t.Fatal("unmentioned sections must keep their defaults")
		}
	})

	t.Run("flags over file", func(t *testing.T) {
		fastOff := false
		seed := int64(99)
		scenario := "ST+AT"
		s, err := ResolveBytes([]byte(file), Overrides{
			Fast: &fastOff, Seed: &seed, Scenario: &scenario,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.Run.Fast || s.Run.Seed != 99 || s.Scenario != "ST+AT" {
			t.Fatalf("flag overrides must win over the file, got %+v", s.Run)
		}
		// The -fast override participates in the probe too: with fast
		// forced off, the defaults tier under the file must be the full
		// one.
		full := Defaults(FixtureLeNet, false)
		if s.Lifetime.Tuning.MaxIters != full.Lifetime.Tuning.MaxIters {
			t.Fatalf("flag fast=false must pick the full defaults tier, got MaxIters=%d",
				s.Lifetime.Tuning.MaxIters)
		}
		// File values no flag touches survive.
		if s.TempK != 310 || s.Lifetime.MaxCycles != 33 {
			t.Fatal("file values without overriding flags must survive")
		}
	})
}

// TestResolveFileSparse: a sparse file overrides only what it mentions,
// via the real file path entry point.
func TestResolveFileSparse(t *testing.T) {
	path := writeScenario(t, `{"version": 1, "fixture": {"name": "vgg"}, "scenario": "ST+T"}`)
	s, err := ResolveFile(path, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Fixture.Name != FixtureVGG || s.Scenario != "ST+T" {
		t.Fatalf("file fields lost: %+v", s.Fixture)
	}
	if s.Fixture.Skew != VGGSkew() {
		t.Fatal("the fixture name in the file must select the VGG skew defaults")
	}
	if s.Lifetime.MaxCycles != Defaults(FixtureVGG, false).Lifetime.MaxCycles {
		t.Fatal("unmentioned budget fields must keep defaults")
	}
}

// TestResolveErrors: unknown fields, bad JSON, and missing files are
// loud errors, never silently ignored.
func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown top-level field", `{"version": 1, "scenaro": "T+T"}`, "scenaro"},
		{"unknown nested field", `{"version": 1, "lifetime": {"tune_cap": 150}}`, "tune_cap"},
		{"malformed json", `{"version": 1,`, "parse scenario"},
		{"wrong version", `{"version": 99}`, "version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ResolveBytes([]byte(tc.body), Overrides{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
	if _, err := ResolveFile(filepath.Join(t.TempDir(), "absent.json"), Overrides{}); err == nil {
		t.Fatal("missing scenario file must error")
	}
}

// TestValidateCollectsAllErrors: a spec violating several constraints
// reports every violation at once, each under its JSON field path.
func TestValidateCollectsAllErrors(t *testing.T) {
	s := Defaults(FixtureLeNet, false)
	s.Fixture.Name = "alexnet"
	s.Scenario = "bogus"
	s.Policy = "random"
	s.TempK = -1
	s.Lifetime.MaxCycles = 0
	s.Lifetime.Tuning.MaxIters = 0
	s.Lifetime.Tuning.BatchSize = 0
	s.Run.Seed = 0
	s.Run.TargetScale = 2

	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec must be rejected")
	}
	msg := err.Error()
	for _, path := range []string{
		"fixture.name",
		"scenario",
		"policy",
		"temp_k",
		"lifetime.max_cycles",
		"lifetime.tuning.max_iters",
		"lifetime.tuning.batch_size",
		"run.seed",
		"run.target_scale",
	} {
		if !strings.Contains(msg, path+":") {
			t.Errorf("validation must report %q, got:\n%s", path, msg)
		}
	}
}

// overflowAppsSpec asks for more applications than an int64 counts:
// 4e18 per cycle over the fast budget's 60 cycles.
const overflowAppsSpec = `{"scenario":"ST+T","lifetime":{"apps_per_cycle":4000000000000000000},"run":{"fast":true,"seed":1}}`

// TestValidateRejectsOverflowingLifetime: a lifetime budget whose
// application count (apps_per_cycle * max_cycles) overflows int64 is
// rejected at resolution instead of reporting a wrapped count.
func TestValidateRejectsOverflowingLifetime(t *testing.T) {
	_, err := ResolveBytes([]byte(overflowAppsSpec), Overrides{})
	if err == nil || !strings.Contains(err.Error(), "lifetime.apps_per_cycle:") {
		t.Fatalf("overflowing lifetime must fail under lifetime.apps_per_cycle, got %v", err)
	}
	// The largest budget that fits still resolves.
	s := Defaults(FixtureLeNet, true)
	s.Lifetime.AppsPerCycle = math.MaxInt64 / int64(s.Lifetime.MaxCycles)
	if err := s.Validate(); err != nil {
		t.Fatalf("a budget of exactly %d applications must be valid: %v", s.Lifetime.AppsPerCycle*int64(s.Lifetime.MaxCycles), err)
	}
}

// TestValidationFieldTable exercises individual constraints one at a
// time so each field's bound is pinned.
func TestValidationFieldTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		path   string
	}{
		{"negative lambda", func(s *Spec) { s.Fixture.Skew.Lambda1 = -1 }, "fixture.skew"},
		{"target acc above one", func(s *Spec) { s.Lifetime.TargetAcc = 1.5 }, "lifetime.target_acc"},
		{"negative drift", func(s *Spec) { s.Lifetime.DriftSigma = -0.1 }, "lifetime.drift_sigma"},
		{"zero eval", func(s *Spec) { s.Lifetime.EvalN = 0 }, "lifetime.eval_n"},
		{"negative trace stride", func(s *Spec) { s.Lifetime.TraceStride = -1 }, "lifetime.trace_stride"},
		{"remap frac above one", func(s *Spec) { s.Lifetime.RemapIterFrac = 1.5 }, "lifetime.remap_iter_frac"},
		{"degraded frac one", func(s *Spec) { s.Lifetime.DegradedAccFrac = 1 }, "lifetime.degraded_acc_frac"},
		{"step frac above one", func(s *Spec) { s.Lifetime.Tuning.StepFrac = 1.5 }, "lifetime.tuning.step_frac"},
		{"negative candidates", func(s *Spec) { s.Lifetime.Mapping.MaxCandidates = -1 }, "lifetime.mapping.max_candidates"},
		{"negative min levels", func(s *Spec) { s.Lifetime.Mapping.MinLevels = -1 }, "lifetime.mapping.min_levels"},
		{"single min level", func(s *Spec) { s.Lifetime.Mapping.MinLevels = 1 }, "lifetime.mapping.min_levels"},
		{"one level", func(s *Spec) { s.Device.Levels = 1 }, "device"},
		{"huge level count", func(s *Spec) { s.Device.Levels = 1_000_000_000_000 }, "device"},
		{"bad fault rate", func(s *Spec) { s.Lifetime.Faults.StuckRate = 2 }, "lifetime.faults"},
		{"margin one", func(s *Spec) { s.Run.TargetMargin = 1 }, "run.target_margin"},
		{"zero scale", func(s *Spec) { s.Run.TargetScale = 0 }, "run.target_scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Defaults(FixtureLeNet, false)
			tc.mutate(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.path+":") {
				t.Fatalf("want error under path %q, got %v", tc.path, err)
			}
		})
	}
}

// TestDumpRoundTrip: a dumped spec fed back through the resolver
// reproduces the identical spec and fingerprint — the -dump-spec ->
// -scenario contract.
func TestDumpRoundTrip(t *testing.T) {
	s := Defaults(FixtureVGG, true)
	s.Name = "round-trip"
	s.Scenario = "ST+T"
	s.Lifetime.Faults.StuckRate = 0.01
	s.Lifetime.Faults.HazardScale = 40

	dump, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ResolveBytes(dump, Overrides{})
	if err != nil {
		t.Fatalf("dumped spec must resolve cleanly: %v", err)
	}
	if back != s {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", back, s)
	}
	fp1, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("round trip changed the fingerprint: %s vs %s", fp1, fp2)
	}
}

// TestFingerprint pins the hash semantics: stable across calls,
// sensitive to every schema-visible parameter, insensitive to pure
// speed knobs.
func TestFingerprint(t *testing.T) {
	base := Defaults(FixtureLeNet, false)
	fp := func(s Spec) string {
		t.Helper()
		h, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	if a, b := fp(base), fp(Defaults(FixtureLeNet, false)); a != b {
		t.Fatalf("identical specs must share a fingerprint: %s vs %s", a, b)
	}
	if len(fp(base)) != 16 {
		t.Fatalf("fingerprint must be 16 hex chars, got %q", fp(base))
	}

	mutations := map[string]func(*Spec){
		"fixture":     func(s *Spec) { s.Fixture.Name = FixtureVGG },
		"skew":        func(s *Spec) { s.Fixture.Skew.Lambda1 *= 2 },
		"scenario":    func(s *Spec) { s.Scenario = "T+T" },
		"policy":      func(s *Spec) { s.Policy = "worst-case" },
		"device":      func(s *Spec) { s.Device.Levels = 64 },
		"aging":       func(s *Spec) { s.Aging.A *= 2 },
		"temperature": func(s *Spec) { s.TempK = 310 },
		"budget":      func(s *Spec) { s.Lifetime.MaxCycles++ },
		"tuning":      func(s *Spec) { s.Lifetime.Tuning.MaxIters++ },
		"mapping":     func(s *Spec) { s.Lifetime.Mapping.FaultAware = true },
		"faults":      func(s *Spec) { s.Lifetime.Faults.StuckRate = 0.01 },
		"seed":        func(s *Spec) { s.Run.Seed++ },
		"fast":        func(s *Spec) { s.Run.Fast = true },
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		if fp(s) == fp(base) {
			t.Errorf("mutation %q must change the fingerprint", name)
		}
	}

	// Runtime-injected fields are excluded.
	s := base
	s.Lifetime.Seed = 42
	s.Lifetime.Tuning.TargetAcc = 0.9
	s.Lifetime.Faults.Seed = 7
	if fp(s) != fp(base) {
		t.Fatal("runtime-injected fields must not change the fingerprint")
	}
}

// TestFixtureFingerprint: bundle sharing is keyed on exactly the
// training-shaping parameters.
func TestFixtureFingerprint(t *testing.T) {
	fp := func(s Spec) string {
		t.Helper()
		h, err := s.FixtureFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := Defaults(FixtureLeNet, false)

	// Simulation-phase parameters do not re-train the bundle.
	sim := base
	sim.Scenario = "T+T"
	sim.TempK = 310
	sim.Lifetime.MaxCycles = 5
	sim.Lifetime.Faults.StuckRate = 0.05
	if fp(sim) != fp(base) {
		t.Fatal("simulation-phase changes must share the trained bundle")
	}

	for name, mutate := range map[string]func(*Spec){
		"fixture": func(s *Spec) { s.Fixture.Name = FixtureVGG },
		"skew":    func(s *Spec) { s.Fixture.Skew.BetaFactor = -1 },
		"fast":    func(s *Spec) { s.Run.Fast = true },
		"seed":    func(s *Spec) { s.Run.Seed = 2 },
	} {
		s := base
		mutate(&s)
		if fp(s) == fp(base) {
			t.Errorf("mutation %q shapes training and must change the fixture fingerprint", name)
		}
	}
}

// TestLifetimeConfigInjection: the runtime-injected fields come from
// the spec's run section and the caller's target.
func TestLifetimeConfigInjection(t *testing.T) {
	s := Defaults(FixtureLeNet, true)
	s.Run.Seed = 17
	s.Policy = "mean-bound"
	cfg := s.LifetimeConfig(0.8)
	if cfg.TargetAcc != 0.8 || cfg.Seed != 17 {
		t.Fatalf("injection lost: %+v", cfg)
	}
	if cfg.PolicyOverride == nil || *cfg.PolicyOverride != mapping.MeanBound {
		t.Fatalf("policy override lost: %v", cfg.PolicyOverride)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("injected config must validate: %v", err)
	}

	s.Policy = ""
	if cfg := s.LifetimeConfig(0.8); cfg.PolicyOverride != nil {
		t.Fatal("empty policy must not override")
	}
}

// TestScenarioKind: the label maps onto the lifetime scenarios.
func TestScenarioKind(t *testing.T) {
	for label, want := range map[string]lifetime.Scenario{
		"T+T": lifetime.TT, "ST+T": lifetime.STT, "ST+AT": lifetime.STAT,
	} {
		s := Defaults(FixtureLeNet, false)
		s.Scenario = label
		got, err := s.ScenarioKind()
		if err != nil || got != want {
			t.Fatalf("%q: got %v, %v", label, got, err)
		}
	}
}

// TestFleetBlockResolution: a scenario with a sparse fleet block must
// resolve to a normalized, valid config that is a fixed point under
// dump -> resolve, and fleet validation errors must surface under
// their JSON paths.
func TestFleetBlockResolution(t *testing.T) {
	s, err := ResolveBytes([]byte(`{
		"version": 1,
		"fleet": {"instances": 6, "ticks": 300}
	}`), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Fleet == nil {
		t.Fatal("fleet block lost in resolution")
	}
	if s.Fleet.Instances != 6 || s.Fleet.Ticks != 300 {
		t.Fatalf("explicit fleet fields lost: %+v", s.Fleet)
	}
	// Sparse fields must have been normalized to their defaults.
	if s.Fleet.Balancer == "" || s.Fleet.Traffic.Pattern == "" || s.Fleet.Service.Capacity == 0 {
		t.Fatalf("fleet fallbacks not resolved: %+v", s.Fleet)
	}
	if *s.Fleet != s.Fleet.Normalized() {
		t.Fatal("resolved fleet block must be a normalization fixed point")
	}

	// Dump -> resolve must reproduce the identical fleet block.
	dump, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ResolveBytes(dump, Overrides{})
	if err != nil {
		t.Fatalf("dumped fleet spec must resolve cleanly: %v", err)
	}
	if back.Fleet == nil || *back.Fleet != *s.Fleet {
		t.Fatalf("fleet round trip drifted:\ngot  %+v\nwant %+v", back.Fleet, s.Fleet)
	}

	// An invalid fleet block must be rejected under its JSON path.
	_, err = ResolveBytes([]byte(`{
		"version": 1,
		"fleet": {"instances": 6, "ticks": 300, "balancer": "random"}
	}`), Overrides{})
	if err == nil || !strings.Contains(err.Error(), "fleet.balancer") {
		t.Fatalf("want fleet.balancer error, got %v", err)
	}
	// Unknown fleet fields are loud, like everywhere else in the schema.
	_, err = ResolveBytes([]byte(`{
		"version": 1,
		"fleet": {"instnces": 6}
	}`), Overrides{})
	if err == nil || !strings.Contains(err.Error(), "instnces") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

// TestFleetFingerprint: adding a fleet block changes the fingerprint;
// specs without one keep their historical hashes (the field is an
// omitted pointer).
func TestFleetFingerprint(t *testing.T) {
	base := Defaults(FixtureLeNet, false)
	fpBase, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// The serialized form of a fleet-less spec must not mention fleet at
	// all — that is what preserves pre-fleet fingerprints.
	dump, err := base.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(dump), "\"fleet\"") {
		t.Fatal("nil fleet must be omitted from the dumped spec")
	}

	withFleet := base
	cfg := DefaultFleet(base)
	withFleet.Fleet = &cfg
	fpFleet, err := withFleet.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpFleet == fpBase {
		t.Fatal("fleet block must change the fingerprint")
	}

	mutated := withFleet
	cfg2 := cfg
	cfg2.Traffic.Load *= 2
	mutated.Fleet = &cfg2
	fpMut, err := mutated.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpMut == fpFleet {
		t.Fatal("fleet parameter changes must change the fingerprint")
	}
}

// TestDumpRoundTripDeviceModel is the fixed-point contract for the
// device-model zoo: a spec selecting a non-default physics model, with
// variation sigmas, state drift and a drift-adaptive tuning policy,
// must survive dump -> resolve byte-identically (same spec, same
// fingerprint) — and a default spec must serialize *without* the
// model/drift/policy keys at all, so every pre-zoo scenario file keeps
// its historical fingerprint.
func TestDumpRoundTripDeviceModel(t *testing.T) {
	s := Defaults(FixtureLeNet, true)
	s.Name = "model-round-trip"
	s.Device.Model = device.ModelSpec{Kind: device.ModelDiffusive, D2D: 0.05, C2C: 0.02}
	s.Device.Drift = device.DriftSpec{Nu: 0.05}
	s.Lifetime.Tuning.Policy = "recalib"

	dump, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"model"`, `"drift"`, `"policy"`, `"d2d"`, `"c2c"`, `"nu"`} {
		if !strings.Contains(string(dump), key) {
			t.Fatalf("dump of a non-default model spec must surface %s:\n%s", key, dump)
		}
	}
	back, err := ResolveBytes(dump, Overrides{})
	if err != nil {
		t.Fatalf("dumped spec must resolve cleanly: %v", err)
	}
	if back != s {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", back, s)
	}
	fp1, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("round trip changed the fingerprint: %s vs %s", fp1, fp2)
	}

	// The zero-value blocks must vanish from serialization: a default
	// spec's canonical form mentions none of the new schema keys.
	def := Defaults(FixtureLeNet, true)
	canon, err := def.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"model"`, `"drift"`, `"policy"`} {
		if strings.Contains(string(canon), key) {
			t.Fatalf("default spec must not serialize %s (fingerprint compatibility):\n%s", key, canon)
		}
	}
}

// TestDeviceModelOverrides pins the CLI override path: -device-model
// and -tuning-policy reach the resolved spec, and invalid values are
// rejected with the offending JSON path.
func TestDeviceModelOverrides(t *testing.T) {
	model, policy := "yacopcic", "minreprog"
	s, err := ResolveBytes(nil, Overrides{DeviceModel: &model, TuningPolicy: &policy})
	if err != nil {
		t.Fatal(err)
	}
	if s.Device.Model.Kind != model {
		t.Fatalf("device model override not applied: %+v", s.Device.Model)
	}
	if s.Lifetime.Tuning.Policy != policy {
		t.Fatalf("tuning policy override not applied: %q", s.Lifetime.Tuning.Policy)
	}

	bad := "nonsense"
	if _, err := ResolveBytes(nil, Overrides{DeviceModel: &bad}); err == nil || !strings.Contains(err.Error(), "device") {
		t.Fatalf("invalid device model must fail under the device path, got %v", err)
	}
	if _, err := ResolveBytes(nil, Overrides{TuningPolicy: &bad}); err == nil || !strings.Contains(err.Error(), "lifetime.tuning.policy") {
		t.Fatalf("invalid tuning policy must fail under lifetime.tuning.policy, got %v", err)
	}
}
