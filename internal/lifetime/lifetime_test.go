package lifetime

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/train"
	"memlife/internal/tuning"
)

// fastAging returns an aggressive aging model so failures occur within
// a handful of cycles during tests.
func fastAging() aging.Model {
	m := aging.DefaultModel()
	m.A = 20000
	m.B = 2000
	return m
}

// fixture trains a small MLP (L2 or skewed) and returns it with data.
func fixture(t *testing.T, skewed bool) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 160, TestN: 60, C: 3, H: 8, W: 8, Noise: 0.15, Seed: 61}
	trainDS, testDS := dataset.MustGenerate(cfg)
	net, err := nn.NewMLP("m", []int{trainDS.SampleSize(), 20, 4}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var reg train.Regularizer = train.L2{Lambda: 1e-4}
	if skewed {
		// Pre-train betas from a short conventional run.
		if _, err := train.Train(net, trainDS, testDS, train.Config{
			Epochs: 3, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1, Reg: reg,
		}); err != nil {
			t.Fatal(err)
		}
		sk, err := train.NewSkewed(0.01, 0.001, train.BetasFromNetwork(net, 1.0))
		if err != nil {
			t.Fatal(err)
		}
		reg = sk
	}
	if _, err := train.Train(net, trainDS, testDS, train.Config{
		Epochs: 6, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1, Reg: reg,
	}); err != nil {
		t.Fatal(err)
	}
	return net, trainDS
}

func testConfig(target float64) Config {
	return Config{
		AppsPerCycle: 1000,
		MaxCycles:    25,
		TargetAcc:    target,
		DriftSigma:   0.05,
		EvalN:        64,
		Seed:         5,
		Tuning:       tuning.Config{MaxIters: 40, BatchSize: 32},
	}
}

// tuneAndRemapConfig is a short budget whose target sits just below
// the fixture's fresh accuracy, so every scenario drifts, tunes, remaps
// and fails within its six cycles.
func tuneAndRemapConfig() Config {
	cfg := testConfig(0.86)
	cfg.MaxCycles = 6
	return cfg
}

func TestScenarioStringsAndPolicies(t *testing.T) {
	if TT.String() != "T+T" || STT.String() != "ST+T" || STAT.String() != "ST+AT" {
		t.Fatal("scenario labels must match the paper")
	}
	if TT.MappingPolicy().String() != "fresh" || STT.MappingPolicy().String() != "fresh" {
		t.Fatal("T+T and ST+T map with the fresh policy")
	}
	if STAT.MappingPolicy().String() != "aging-aware" {
		t.Fatal("ST+AT maps with the aging-aware policy")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	tinyTune := tuning.Config{MaxIters: 1, BatchSize: 1}
	bad := []Config{
		{AppsPerCycle: 0, MaxCycles: 1, TargetAcc: 0.5, EvalN: 1, Tuning: tinyTune},
		{AppsPerCycle: 1, MaxCycles: 0, TargetAcc: 0.5, EvalN: 1, Tuning: tinyTune},
		{AppsPerCycle: 1, MaxCycles: 1, TargetAcc: 0.5, EvalN: 1, Tuning: tuning.Config{MaxIters: 0, BatchSize: 1}},
		{AppsPerCycle: 1, MaxCycles: 1, TargetAcc: 1.5, EvalN: 1, Tuning: tinyTune},
		{AppsPerCycle: math.MaxInt64/2 + 1, MaxCycles: 2, TargetAcc: 0.5, EvalN: 1, Tuning: tinyTune},
		{AppsPerCycle: 1, MaxCycles: 1, TargetAcc: 0.5, EvalN: 1, Tuning: tinyTune, Mapping: mapping.Config{MinLevels: -1}},
		{AppsPerCycle: 1, MaxCycles: 1, TargetAcc: 0.5, EvalN: 1, Tuning: tuning.Config{MaxIters: 1, BatchSize: 0}},
		{AppsPerCycle: 1, MaxCycles: 1, TargetAcc: 0.5, EvalN: 0, Tuning: tinyTune},
		{AppsPerCycle: 1, MaxCycles: 1, TargetAcc: 0.5, DriftSigma: -1, EvalN: 1, Tuning: tinyTune},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: config %+v should be rejected", i, c)
		}
	}
	// Target 0 is a valid section value (a spec derives the target at
	// run time), but a run needs the injected target to be positive.
	zero := Config{AppsPerCycle: 1, MaxCycles: 1, EvalN: 1, Tuning: tinyTune}
	if err := zero.Validate(); err != nil {
		t.Fatalf("target 0 must pass Validate: %v", err)
	}
	if _, err := RunCtx(context.Background(), nil, nil, STAT, device.Params32(), aging.DefaultModel(), 300, zero); err == nil || !strings.Contains(err.Error(), "target_acc") {
		t.Fatalf("RunCtx must reject target 0, got %v", err)
	}
}

// TestRunsLeaveNetworkUntouched pins the ownership rule: a trained
// network is a read-only input. SuggestTarget and RunCtx map and tune a
// private clone, so the network's parameters are bit-identical after
// they return, and a second identical run reproduces the first.
func TestRunsLeaveNetworkUntouched(t *testing.T) {
	net, trainDS := fixture(t, false)
	before := net.SnapshotParams()
	untouched := func(t *testing.T) {
		t.Helper()
		after := net.SnapshotParams()
		for i := range before {
			for j := range before[i] {
				if before[i][j] != after[i][j] {
					t.Fatalf("parameter tensor %d element %d changed: %v -> %v", i, j, before[i][j], after[i][j])
				}
			}
		}
	}

	t.Run("SuggestTarget", func(t *testing.T) {
		target, err := SuggestTarget(net, trainDS, device.Params32(), aging.DefaultModel(), 300, 64, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if target <= 0 || target > 1 {
			t.Fatalf("suggested target %g out of range", target)
		}
		untouched(t)
	})

	t.Run("RunCtx twice", func(t *testing.T) {
		cfg := tuneAndRemapConfig()
		run := func() Result {
			t.Helper()
			res, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
			if err != nil {
				t.Fatal(err)
			}
			untouched(t)
			return res
		}
		first, second := run(), run()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("second run on the same network diverged:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}

// TestConcurrentRunsShareNetwork runs T+T, ST+T and two ST+AT
// simulations concurrently on one trained network; each must return
// exactly its serial Result. CI runs it under -race, which also checks
// that runs only read the shared network.
func TestConcurrentRunsShareNetwork(t *testing.T) {
	net, trainDS := fixture(t, false)
	cfg := tuneAndRemapConfig()
	scenarios := []Scenario{TT, STT, STAT, STAT}
	run := func(sc Scenario) (Result, error) {
		return RunCtx(context.Background(), net, trainDS, sc, device.Params32(), fastAging(), 300, cfg)
	}

	want := make([]Result, len(scenarios))
	for i, sc := range scenarios {
		res, err := run(sc)
		if err != nil {
			t.Fatalf("serial %s: %v", sc, err)
		}
		want[i] = res
	}

	got := make([]Result, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(sc)
		}()
	}
	wg.Wait()
	for i, sc := range scenarios {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d (%s): %v", i, sc, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("concurrent run %d (%s) diverged from its serial result:\ngot  %+v\nwant %+v", i, sc, got[i], want[i])
		}
	}
}

func TestRunProducesRecordsAndFails(t *testing.T) {
	net, trainDS := fixture(t, false)
	target, err := SuggestTarget(net, trainDS, device.Params32(), fastAging(), 300, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), net, trainDS, TT, device.Params32(), fastAging(), 300, testConfig(target))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("run must record cycles")
	}
	if !res.Failed {
		t.Fatalf("aggressive aging must kill the array within %d cycles; lifetime=%d", testConfig(target).MaxCycles, res.Lifetime)
	}
	last := res.Records[len(res.Records)-1]
	if last.Converged {
		t.Fatal("the failing cycle must be non-converged")
	}
	if res.Lifetime != last.Apps {
		t.Fatalf("lifetime %d must equal apps at failure %d", res.Lifetime, last.Apps)
	}
	if res.Lifetime%1000 != 0 {
		t.Fatalf("lifetime %d must be a whole number of cycles", res.Lifetime)
	}
	// Cumulative apps must be non-decreasing and cycle indices dense.
	for i, r := range res.Records {
		if r.Cycle != i+1 {
			t.Fatalf("cycle indices must be 1..n, got %d at %d", r.Cycle, i)
		}
		if i > 0 && r.Apps < res.Records[i-1].Apps {
			t.Fatal("apps must be non-decreasing")
		}
	}
}

func TestTuningIterationsRiseTowardsFailure(t *testing.T) {
	net, trainDS := fixture(t, false)
	target, err := SuggestTarget(net, trainDS, device.Params32(), fastAging(), 300, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), net, trainDS, TT, device.Params32(), fastAging(), 300, testConfig(target))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 2 {
		t.Skip("array died on the first cycle; no trend to check")
	}
	first := res.Records[0].TuneIters
	last := res.Records[len(res.Records)-1].TuneIters
	if last <= first {
		t.Fatalf("Fig. 10 shape violated: tuning iterations %d -> %d must rise towards failure", first, last)
	}
}

func TestUpperBoundsDecayMonotonically(t *testing.T) {
	net, trainDS := fixture(t, false)
	target, err := SuggestTarget(net, trainDS, device.Params32(), fastAging(), 300, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), net, trainDS, TT, device.Params32(), fastAging(), 300, testConfig(target))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].FCUpper > res.Records[i-1].FCUpper+1e-9 {
			t.Fatal("mean aged upper bound must never recover (aging is irreversible)")
		}
	}
}

// TestSkewedOutlivesConventional is the light-weight version of the
// paper's Table I claim: with identical budgets, ST+T must outlive T+T.
func TestSkewedOutlivesConventional(t *testing.T) {
	ttNet, trainDS := fixture(t, false)
	target, err := SuggestTarget(ttNet, trainDS, device.Params32(), fastAging(), 300, 64, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := RunCtx(context.Background(), ttNet, trainDS, TT, device.Params32(), fastAging(), 300, testConfig(target))
	if err != nil {
		t.Fatal(err)
	}

	stNet, _ := fixture(t, true)
	stTarget, err := SuggestTarget(stNet, trainDS, device.Params32(), fastAging(), 300, 64, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunCtx(context.Background(), stNet, trainDS, STT, device.Params32(), fastAging(), 300, testConfig(stTarget))
	if err != nil {
		t.Fatal(err)
	}
	if st.Lifetime < tt.Lifetime {
		t.Fatalf("ST+T lifetime %d must be >= T+T lifetime %d", st.Lifetime, tt.Lifetime)
	}
}
