package tuning

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/train"
)

// fixture returns a trained, freshly mapped network with train dataset
// and an eval batch.
func fixture(t *testing.T) (*crossbar.MappedNetwork, *dataset.Dataset, *tensor.Tensor, []int) {
	t.Helper()
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 160, TestN: 60, C: 3, H: 8, W: 8, Noise: 0.15, Seed: 51}
	trainDS, testDS := dataset.MustGenerate(cfg)
	net, err := nn.NewMLP("m", []int{trainDS.SampleSize(), 20, 4}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Train(net, trainDS, testDS, train.Config{
		Epochs: 6, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	mn, err := crossbar.NewMappedNetwork(net, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapping.Map(mn, mapping.Config{Policy: mapping.Fresh}, nil, nil); err != nil {
		t.Fatal(err)
	}
	b := trainDS.Batches(trainDS.Len(), nil)[0]
	return mn, trainDS, b.X, b.Y
}

// testConfig is a valid tuning config at the lifetime defaults' step
// fraction, patience and retry budget.
func testConfig(maxIters, batchSize int, target float64) Config {
	return Config{MaxIters: maxIters, TargetAcc: target, BatchSize: batchSize, StepFrac: 0.25, Patience: 10, RetryBudget: 2}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(150, 16, 0.9)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// Every field means what it says: a zero step fraction or patience
	// is an error, not a default.
	for i, mutate := range []func(*Config){
		func(c *Config) { c.MaxIters = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.StepFrac = 2 },
		func(c *Config) { c.StepFrac = 0 },
		func(c *Config) { c.Patience = 0 },
		func(c *Config) { c.Patience = -1 },
		func(c *Config) { c.RetryBudget = -1 },
		func(c *Config) { c.Policy = "bogus" },
	} {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: config %+v should be rejected", i, c)
		}
	}
	noRetries := good
	noRetries.RetryBudget = 0
	if err := noRetries.Validate(); err != nil {
		t.Fatalf("retry budget 0 (no retries) must be accepted: %v", err)
	}
	// The injected target is not a section field: Validate leaves it to
	// Tune, which rejects it before touching the network.
	for _, target := range []float64{0, 1.5} {
		c := good
		c.TargetAcc = target
		if err := c.Validate(); err != nil {
			t.Fatalf("target %g is Tune's rule, not Validate's: %v", target, err)
		}
		if _, err := Tune(nil, nil, nil, nil, c); err == nil || !strings.Contains(err.Error(), "target accuracy") {
			t.Fatalf("Tune must reject target %g, got %v", target, err)
		}
	}
}

func TestTuneConvergesImmediatelyWhenTargetMet(t *testing.T) {
	mn, ds, x, y := fixture(t)
	acc, err := mn.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(mn, ds, x, y, testConfig(150, 16, acc-0.01))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("already-good network must converge in 0 iterations, got %+v", res)
	}
	if res.Pulses != 0 {
		t.Fatal("zero-iteration tuning must not pulse devices")
	}
}

// TestTuneRecoversFromPerturbation is the core behaviour: drift the
// array, then verify tuning restores accuracy within budget and that the
// pulses are accounted as stress.
func TestTuneRecoversFromPerturbation(t *testing.T) {
	mn, ds, x, y := fixture(t)
	baseline, err := mn.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}

	mn.Drift(0.10, tensor.NewRNG(4))
	perturbed, err := mn.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed >= baseline {
		t.Skipf("drift did not hurt accuracy (%.3f -> %.3f); nothing to recover", baseline, perturbed)
	}

	cfg := testConfig(150, 32, baseline-0.02)
	cfg.Seed = 2
	res, err := Tune(mn, ds, x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("tuning failed to recover: %+v", res)
	}
	if res.FinalAcc < perturbed {
		t.Fatalf("tuning made accuracy worse: %.3f -> %.3f", perturbed, res.FinalAcc)
	}
	if res.Pulses == 0 || res.Stress <= 0 {
		t.Fatalf("recovery must cost pulses and stress, got %+v", res)
	}
	if len(res.AccTrace) != res.Iterations+1 {
		t.Fatalf("AccTrace length %d, want iterations+1 = %d", len(res.AccTrace), res.Iterations+1)
	}
}

func TestTuneFailsOnImpossibleTarget(t *testing.T) {
	mn, ds, x, y := fixture(t)
	res, err := Tune(mn, ds, x, y, testConfig(3, 16, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged && res.FinalAcc < 1.0 {
		t.Fatal("non-perfect accuracy cannot report convergence to 1.0")
	}
	if !res.Converged && res.Iterations != 3 {
		t.Fatalf("failed run must consume the whole budget, got %d", res.Iterations)
	}
}

func TestTuningAgesTheArray(t *testing.T) {
	mn, ds, x, y := fixture(t)
	stressBefore := mn.TotalStress()
	mn.Drift(0.3, tensor.NewRNG(5))
	res, err := Tune(mn, ds, x, y, testConfig(10, 16, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 0 && mn.TotalStress() <= stressBefore {
		t.Fatal("tuning pulses must age the array")
	}
	if res.Iterations == 0 {
		t.Fatal("heavy drift with a perfect target must force tuning work")
	}
}

func TestKthLargestAbs(t *testing.T) {
	// kthLargestAbs takes magnitudes and reorders its argument in place,
	// so each case gets a fresh slice.
	abs := func() []float64 { return []float64{5, 1, 3, 2, 4} }
	if got := kthLargestAbs(abs(), 1); got != 5 {
		t.Fatalf("k=1: got %g, want 5", got)
	}
	if got := kthLargestAbs(abs(), 3); got != 3 {
		t.Fatalf("k=3: got %g, want 3", got)
	}
	if got := kthLargestAbs(abs(), 10); got != 1 {
		t.Fatalf("k beyond length must clamp to min abs, got %g", got)
	}
}

// TestKthLargestAbsMatchesSort: the selection returns the value
// sort.Float64s leaves at len-k (clamped at 0) on random sizes, k of 1,
// len and beyond len, heavy ties, exact zeros of both signs and NaN.
// Values must compare equal, or both be NaN.
func TestKthLargestAbsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []func() float64{
		func() float64 { return rng.ExpFloat64() },                                   // distinct
		func() float64 { return float64(rng.Intn(4)) },                               // heavy ties and zeros
		func() float64 { return []float64{0, math.Copysign(0, -1), 1}[rng.Intn(3)] }, // signed zeros
		func() float64 {
			if rng.Intn(10) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(50))
		},
	}
	for trial := 0; trial < 400; trial++ {
		draw := draws[trial%len(draws)]
		n := 1 + rng.Intn(300)
		if trial%50 == 0 {
			n = 5000 + rng.Intn(5000)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = draw()
		}
		for _, k := range []int{1, n, n + 1 + rng.Intn(5), 1 + rng.Intn(n)} {
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			want := sorted[max(n-k, 0)]
			got := kthLargestAbs(append([]float64(nil), vals...), k)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d n=%d k=%d: got %v, sort gives %v", trial, n, k, got, want)
			}
		}
	}
}

// BenchmarkPulseThreshold picks the pulse threshold of one tuning
// iteration of the fast LeNet: about 31k gradient magnitudes, a
// quarter of them pulsed.
func BenchmarkPulseThreshold(b *testing.B) {
	const n, stepFrac = 31_000, 0.25
	rng := rand.New(rand.NewSource(1))
	grads := make([]float64, n)
	for i := range grads {
		if rng.Intn(4) != 0 { // a quarter of the gradients are exact zeros
			grads[i] = math.Abs(rng.NormFloat64())
		}
	}
	abs := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(abs, grads)
		kthLargestAbs(abs, int(n*stepFrac))
	}
}

func TestStepFracLimitsPulsedDevices(t *testing.T) {
	mnA, dsA, xA, yA := fixture(t)
	mnA.Drift(0.08, tensor.NewRNG(6))
	resA, err := Tune(mnA, dsA, xA, yA, Config{MaxIters: 5, TargetAcc: 0.999, BatchSize: 16, StepFrac: 0.05, Patience: 10, RetryBudget: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mnB, dsB, xB, yB := fixture(t)
	mnB.Drift(0.08, tensor.NewRNG(6))
	resB, err := Tune(mnB, dsB, xB, yB, Config{MaxIters: 5, TargetAcc: 0.999, BatchSize: 16, StepFrac: 0.8, Patience: 10, RetryBudget: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Pulses >= resB.Pulses {
		t.Fatalf("StepFrac 0.05 pulses (%d) must be below StepFrac 0.8 pulses (%d)", resA.Pulses, resB.Pulses)
	}
}
