package experiments

import (
	"fmt"
	"sync"

	"memlife/internal/aging"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/nn"
	"memlife/internal/spec"
	"memlife/internal/tensor"
	"memlife/internal/train"
)

// bundleCache memoizes trained bundles per fixture fingerprint with
// per-key singleflight: the map mutex is held only for entry lookup,
// and each entry trains under its own sync.Once — so concurrent shards
// needing *different* fixtures train in parallel, while shards racing
// for the *same* fixture train it exactly once and share the result.
// The key is spec.FixtureFingerprint — a canonical hash of everything
// that shapes training (fixture name, skew constants, fast flag, seed)
// — so two configurations that differ in any fixture parameter can
// never share a cached bundle. The cached networks are read-only: every
// mapped network (lifetime runs, range selection, target probes) runs
// on its own clone, so drivers share a bundle without locking.
var bundleCache = struct {
	sync.Mutex
	m map[string]*bundleEntry
}{m: make(map[string]*bundleEntry)}

type bundleEntry struct {
	once sync.Once
	b    *Bundle
	err  error
}

func cachedBundle(s spec.Spec, opt Options, build func(spec.Spec, Options) (*Bundle, error)) (*Bundle, error) {
	key, err := s.FixtureFingerprint()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	bundleCache.Lock()
	e, ok := bundleCache.m[key]
	if !ok {
		e = &bundleEntry{}
		bundleCache.m[key] = e
	}
	bundleCache.Unlock()
	e.once.Do(func() {
		if err := opt.Err(); err != nil {
			e.err = err
			return
		}
		e.b, e.err = build(s, opt)
	})
	if e.err != nil {
		// Failed builds (including cancelled ones) are not cached: drop
		// the entry so a later call can retry.
		bundleCache.Lock()
		if bundleCache.m[key] == e {
			delete(bundleCache.m, key)
		}
		bundleCache.Unlock()
	}
	return e.b, e.err
}

// SkewParams are the skewed-training constants of Table II; the type
// lives in internal/spec (the "fixture.skew" section of a scenario
// spec) and is aliased here for the drivers.
type SkewParams = spec.SkewParams

// Bundle holds one network/dataset test case of Table I, trained both
// conventionally (L2) and with the skewed regularizer.
type Bundle struct {
	Name        string
	DatasetName string
	TrainDS     *dataset.Dataset
	TestDS      *dataset.Dataset
	Normal      *nn.Network
	NormalAcc   float64
	Skewed      *nn.Network
	SkewedAcc   float64
	Skew        SkewParams
	// Spec is the resolved scenario spec the bundle was built from;
	// drivers derive their lifetime runs from it (base spec + a small
	// transform per experiment arm).
	Spec spec.Spec

	// mu backs Exclusive. The library itself never takes it, since it
	// never writes Normal or Skewed.
	mu sync.Mutex
}

// Exclusive runs f while holding the bundle's network lock. The
// library never mutates bundle networks (mapped networks run on their
// own clones) and never takes this lock; it serves only callers that
// do mutate Normal or Skewed directly, such as running a training
// forward/backward pass on them, and that share the bundle with other
// goroutines. The lock is not reentrant: do not nest Exclusive calls.
func (b *Bundle) Exclusive(f func() error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return f()
}

// BaseSpec returns the resolved spec a named experiment starts from:
// the package defaults for the fixture at the options' scale, with the
// run seed and evaluation workers injected. Every registered
// experiment is this base plus a small transform.
func BaseSpec(fixture string, opt Options) spec.Spec {
	s := spec.Defaults(fixture, opt.Fast)
	s.Run.Seed = opt.Seed
	s.Run.Workers = opt.Workers
	return s
}

// DeviceParams returns the memristor technology used by all experiments.
func DeviceParams() device.Params { return spec.Defaults(spec.FixtureLeNet, false).Device }

// AgingModel returns the aging calibration used by all experiments (see
// spec.Defaults for the acceleration rationale).
func AgingModel() aging.Model { return spec.Defaults(spec.FixtureLeNet, false).Aging }

// TempK is the operating temperature of all experiments; it matches the
// temp_k default of spec.Defaults.
const TempK = 300.0

// BundleForSpec builds (or returns the cached) trained bundle for the
// spec's fixture section.
func BundleForSpec(s spec.Spec, opt Options) (*Bundle, error) {
	switch s.Fixture.Name {
	case spec.FixtureLeNet:
		return cachedBundle(s, opt, buildLeNetBundle)
	case spec.FixtureVGG:
		return cachedBundle(s, opt, buildVGGBundle)
	default:
		return nil, fmt.Errorf("experiments: unknown fixture %q", s.Fixture.Name)
	}
}

// LeNetBundle builds (or returns the cached) LeNet-5 / SynthCIFAR10
// test case.
func LeNetBundle(opt Options) (*Bundle, error) {
	return BundleForSpec(BaseSpec(spec.FixtureLeNet, opt), opt)
}

func buildLeNetBundle(s spec.Spec, opt Options) (*Bundle, error) {
	seed := s.Run.Seed
	dsCfg := dataset.SynthConfig{Classes: 10, TrainN: 800, TestN: 200, C: 3, H: 16, W: 16, Noise: 0.5, Seed: seed}
	netCfg := nn.LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}
	trainCfg := train.Config{Epochs: 10, BatchSize: 32, LR: 0.02, Momentum: 0.9, LRDecay: 0.95, Seed: seed, Log: opt.Log}
	if s.Run.Fast {
		dsCfg.TrainN, dsCfg.TestN = 240, 80
		dsCfg.H, dsCfg.W = 12, 12
		netCfg.H, netCfg.W = 12, 12
		trainCfg.Epochs = 8
	}
	trainDS, testDS, err := dataset.Generate(dsCfg)
	if err != nil {
		return nil, err
	}
	build := func(rngSeed int64) (*nn.Network, error) { return nn.NewLeNet5(netCfg, tensor.NewRNG(rngSeed)) }
	return makeBundle("LeNet-5", "SynthCIFAR10", trainDS, testDS, build, trainCfg, s, opt)
}

// VGGBundle builds (or returns the cached) VGG-16 / SynthCIFAR100 test
// case. Full mode uses a width-reduced VGG-16 on a 50-class dataset so
// CPU training stays in the minutes range; fast mode shrinks further
// (see DESIGN.md).
func VGGBundle(opt Options) (*Bundle, error) {
	return BundleForSpec(BaseSpec(spec.FixtureVGG, opt), opt)
}

func buildVGGBundle(s spec.Spec, opt Options) (*Bundle, error) {
	seed := s.Run.Seed
	dsCfg := dataset.SynthConfig{Classes: 50, TrainN: 1500, TestN: 300, C: 3, H: 32, W: 32, Noise: 0.35, Seed: seed + 100}
	netCfg := nn.VGGConfig{InC: 3, H: 32, W: 32, Classes: 50, WidthMult: 0.125, FCWidth: 64}
	trainCfg := train.Config{Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, LRDecay: 0.95, GradClip: 1.0, Seed: seed, Log: opt.Log}
	if s.Run.Fast {
		dsCfg.Classes, dsCfg.TrainN, dsCfg.TestN = 10, 400, 80
		dsCfg.Noise = 0.3
		netCfg.Classes = 10
		trainCfg.Epochs = 6
	}
	trainDS, testDS, err := dataset.Generate(dsCfg)
	if err != nil {
		return nil, err
	}
	build := func(rngSeed int64) (*nn.Network, error) { return nn.NewVGG16(netCfg, tensor.NewRNG(rngSeed)) }
	name := "VGG-16"
	if netCfg.WidthMult != 1 {
		name = fmt.Sprintf("VGG-16(x%g)", netCfg.WidthMult)
	}
	return makeBundle(name, "SynthCIFAR100", trainDS, testDS, build, trainCfg, s, opt)
}

// makeBundle trains the network twice from the same initialization:
// once with L2 (the "traditional" weights) and once with the skewed
// regularizer seeded from the L2 run's per-layer sigmas (Table II).
func makeBundle(name, dsName string, trainDS, testDS *dataset.Dataset,
	build func(int64) (*nn.Network, error), cfg train.Config, s spec.Spec, opt Options) (*Bundle, error) {

	skew := s.Fixture.Skew
	normal, err := build(s.Run.Seed + 7)
	if err != nil {
		return nil, err
	}
	l2cfg := cfg
	l2cfg.Reg = train.L2{Lambda: 1e-4}
	normalRes, err := train.Train(normal, trainDS, testDS, l2cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s normal training: %w", name, err)
	}

	if err := opt.Err(); err != nil {
		return nil, err
	}
	betas := train.BetasFromNetwork(normal, skew.BetaFactor)
	reg, err := train.NewSkewed(skew.Lambda1, skew.Lambda2, betas)
	if err != nil {
		return nil, err
	}
	skewed, err := build(s.Run.Seed + 7) // identical initialization
	if err != nil {
		return nil, err
	}
	skCfg := cfg
	skCfg.Reg = reg
	skCfg.RegWarmup = cfg.Epochs / 3
	skewedRes, err := train.Train(skewed, trainDS, testDS, skCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s skewed training: %w", name, err)
	}

	return &Bundle{
		Name:        name,
		DatasetName: dsName,
		TrainDS:     trainDS,
		TestDS:      testDS,
		Normal:      normal,
		NormalAcc:   normalRes.FinalTestAcc,
		Skewed:      skewed,
		SkewedAcc:   skewedRes.FinalTestAcc,
		Skew:        skew,
		Spec:        s,
	}, nil
}

// runSpec executes the lifetime simulation one resolved spec describes,
// using the bundle's trained networks: the scenario picks the weights
// (T+T serves the conventionally trained network, ST+* the skewed one)
// and the spec supplies device, aging, temperature and the full
// lifetime budget. The run maps a clone, leaving the bundle untouched.
func runSpec(b *Bundle, s spec.Spec, opt Options, target float64) (lifetime.Result, error) {
	sc, err := s.ScenarioKind()
	if err != nil {
		return lifetime.Result{}, fmt.Errorf("experiments: %w", err)
	}
	net := b.Normal
	if sc != lifetime.TT {
		net = b.Skewed
	}
	return lifetime.RunCtx(opt.Context(), net, b.TrainDS, sc, s.Device, s.Aging, s.TempK, s.LifetimeConfig(target))
}

// ScenarioTarget picks one target accuracy per bundle, achievable by
// both the normal and the skewed variant right after a fresh mapping
// (minus a small margin), mirroring the paper's per-network target.
func ScenarioTarget(b *Bundle, opt Options) (float64, error) { return specTarget(b, b.Spec) }

// specTarget resolves the spec's effective tuning target: an explicit
// lifetime.target_acc wins; otherwise the target is auto-derived as
// min(fresh-mapped accuracy of both trained variants) - target_margin,
// scaled by target_scale.
func specTarget(b *Bundle, s spec.Spec) (float64, error) {
	if s.Lifetime.TargetAcc > 0 {
		return s.Lifetime.TargetAcc, nil
	}
	margin := s.Run.TargetMargin
	evalN := s.Lifetime.EvalN
	tn, err := lifetime.SuggestTarget(b.Normal, b.TrainDS, s.Device, s.Aging, s.TempK, evalN, margin)
	if err != nil {
		return 0, err
	}
	ts, err := lifetime.SuggestTarget(b.Skewed, b.TrainDS, s.Device, s.Aging, s.TempK, evalN, margin)
	if err != nil {
		return 0, err
	}
	if ts < tn {
		tn = ts
	}
	return tn * s.Run.TargetScale, nil
}
