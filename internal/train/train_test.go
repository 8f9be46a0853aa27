package train

import (
	"math"
	"testing"

	"memlife/internal/dataset"
	"memlife/internal/nn"
	"memlife/internal/tensor"
)

func tinyNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("tiny", []int{4, 6, 3}, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestL2PenaltyValue(t *testing.T) {
	net := tinyNet(t, 1)
	for _, p := range net.WeightParams() {
		p.W.Fill(2)
	}
	l2 := L2{Lambda: 0.5}
	n := 0
	for _, p := range net.WeightParams() {
		n += p.W.Size()
	}
	want := 0.5 * 4 * float64(n)
	if got := l2.Penalty(net.Params()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("L2 penalty = %g, want %g", got, want)
	}
}

func TestL2SkipsBiases(t *testing.T) {
	net := tinyNet(t, 1)
	for _, p := range net.Params() {
		p.W.Fill(1)
	}
	l2 := L2{Lambda: 1}
	net.ZeroGrads()
	l2.AddGrad(net.Params())
	for _, p := range net.Params() {
		if p.Kind == nn.KindBias {
			if p.Grad.AbsMax() != 0 {
				t.Fatalf("bias %s must not be regularized", p.Name)
			}
		} else if p.Grad.AbsMax() == 0 {
			t.Fatalf("weight %s must be regularized", p.Name)
		}
	}
}

// TestRegularizerGradMatchesPenalty numerically differentiates both
// regularizers' Penalty and compares with AddGrad.
func TestRegularizerGradMatchesPenalty(t *testing.T) {
	skew, err := NewSkewed(0.3, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	skew.DefaultBeta = 0.1
	regs := []Regularizer{L2{Lambda: 0.2}, skew}
	for _, reg := range regs {
		net := tinyNet(t, 2)
		params := net.Params()
		net.ZeroGrads()
		reg.AddGrad(params)
		const eps = 1e-6
		for _, p := range params {
			for i := 0; i < p.W.Size(); i += 3 {
				orig := p.W.Data()[i]
				p.W.Data()[i] = orig + eps
				up := reg.Penalty(params)
				p.W.Data()[i] = orig - eps
				dn := reg.Penalty(params)
				p.W.Data()[i] = orig
				want := (up - dn) / (2 * eps)
				got := p.Grad.Data()[i]
				if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("%T: %s[%d] grad %g vs numeric %g", reg, p.Name, i, got, want)
				}
			}
		}
	}
}

func TestSkewedPenaltyPiecewise(t *testing.T) {
	s, err := NewSkewed(10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	beta := 0.5
	// Left of beta: strong penalty.
	if got := s.PenaltyAt(0, beta); math.Abs(got-10*0.25) > 1e-12 {
		t.Fatalf("left penalty = %g, want 2.5", got)
	}
	// Right of beta: weak penalty.
	if got := s.PenaltyAt(1, beta); math.Abs(got-1*0.25) > 1e-12 {
		t.Fatalf("right penalty = %g, want 0.25", got)
	}
	// At beta: zero.
	if got := s.PenaltyAt(beta, beta); got != 0 {
		t.Fatalf("penalty at beta = %g, want 0", got)
	}
	// Asymmetry: equidistant points cost 10x more on the left.
	if s.PenaltyAt(beta-0.2, beta) <= s.PenaltyAt(beta+0.2, beta) {
		t.Fatal("left side must be penalized harder than right side")
	}
}

func TestNewSkewedValidation(t *testing.T) {
	if _, err := NewSkewed(1, 2, nil); err == nil {
		t.Fatal("lambda1 < lambda2 must be rejected")
	}
	if _, err := NewSkewed(-1, -2, nil); err == nil {
		t.Fatal("negative penalties must be rejected")
	}
	if _, err := NewSkewed(2, 2, nil); err != nil {
		t.Fatalf("lambda1 == lambda2 is the paper's VGG setting and must be accepted: %v", err)
	}
}

func TestBetasFromNetwork(t *testing.T) {
	net := tinyNet(t, 3)
	betas := BetasFromNetwork(net, 2.0)
	if len(betas) != 2 {
		t.Fatalf("got %d betas, want 2 weight layers", len(betas))
	}
	for _, p := range net.WeightParams() {
		want := 2.0 * p.W.Std()
		if math.Abs(betas[p.Name]-want) > 1e-12 {
			t.Fatalf("beta[%s] = %g, want %g", p.Name, betas[p.Name], want)
		}
	}
}

func TestSkewnessOf(t *testing.T) {
	if SkewnessOf([]float64{1, 1}) != 0 {
		t.Fatal("skewness of tiny samples must be 0")
	}
	if SkewnessOf([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("skewness of constant sample must be 0")
	}
	// Right-tailed sample has positive skewness.
	right := []float64{0, 0, 0, 0, 0, 0, 0, 0, 10}
	if SkewnessOf(right) <= 0 {
		t.Fatalf("right-tailed skewness = %g, want > 0", SkewnessOf(right))
	}
	left := []float64{0, 10, 10, 10, 10, 10, 10, 10, 10}
	if SkewnessOf(left) >= 0 {
		t.Fatalf("left-tailed skewness = %g, want < 0", SkewnessOf(left))
	}
}

func TestSGDPlainStep(t *testing.T) {
	net := tinyNet(t, 4)
	p := net.WeightParams()[0]
	p.W.Fill(1)
	p.Grad.Fill(0.5)
	opt, err := NewSGD(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt.Step([]*nn.Param{p})
	if math.Abs(p.W.Data()[0]-0.95) > 1e-12 {
		t.Fatalf("SGD step result = %g, want 0.95", p.W.Data()[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	net := tinyNet(t, 5)
	p := net.WeightParams()[0]
	p.W.Fill(0)
	opt, err := NewSGD(0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	p.Grad.Fill(1)
	opt.Step([]*nn.Param{p}) // v = -0.1, w = -0.1
	opt.Step([]*nn.Param{p}) // v = -0.19, w = -0.29
	if math.Abs(p.W.Data()[0]-(-0.29)) > 1e-12 {
		t.Fatalf("momentum result = %g, want -0.29", p.W.Data()[0])
	}
}

func TestNewSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0); err == nil {
		t.Fatal("zero LR must be rejected")
	}
	if _, err := NewSGD(0.1, 1); err == nil {
		t.Fatal("momentum 1 must be rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{Epochs: 1, BatchSize: 8, LR: 0.1, LRDecay: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Epochs: 0, BatchSize: 8, LR: 0.1},
		{Epochs: 1, BatchSize: 0, LR: 0.1},
		{Epochs: 1, BatchSize: 8, LR: 0},
		{Epochs: 1, BatchSize: 8, LR: 0.1, LRDecay: 2},
		{Epochs: 1, BatchSize: 8, LR: 0.1, GradClip: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

// TestTrainingLearnsSyntheticTask is the package's end-to-end check: a
// small MLP must reach well-above-chance accuracy on the synthetic
// dataset within a few epochs.
func TestTrainingLearnsSyntheticTask(t *testing.T) {
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 240, TestN: 80, C: 3, H: 8, W: 8, Noise: 0.15, Seed: 21}
	trainDS, testDS := dataset.MustGenerate(cfg)
	net, err := nn.NewMLP("m", []int{trainDS.SampleSize(), 32, 4}, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(net, trainDS, testDS, Config{
		Epochs: 8, BatchSize: 16, LR: 0.02, Momentum: 0.9, LRDecay: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTestAcc < 0.7 {
		t.Fatalf("final test accuracy %.3f < 0.7; training not learning", res.FinalTestAcc)
	}
	if len(res.EpochLoss) != 8 || len(res.EpochTestAcc) != 8 {
		t.Fatalf("history lengths %d/%d, want 8/8", len(res.EpochLoss), len(res.EpochTestAcc))
	}
	if res.EpochLoss[7] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", res.EpochLoss[0], res.EpochLoss[7])
	}
}

// relConductancePosition measures where the weight mass sits within
// each layer's [wMin, wMax] window — exactly the relative conductance
// position under the linear-in-g mapping of eq. (4). Conventional
// training sits near 0.5; skewed training must push it down (small
// conductances, Section IV-A).
func relConductancePosition(net *nn.Network) float64 {
	total, n := 0.0, 0
	for _, wp := range net.WeightParams() {
		mn, mx := wp.W.MinMax()
		if mx <= mn {
			continue
		}
		for _, w := range wp.W.Data() {
			total += (w - mn) / (mx - mn)
			n++
		}
	}
	return total / float64(n)
}

// TestSkewedTrainingShiftsDistribution trains the same net with L2 and
// with the skewed regularizer and verifies the skewed run concentrates
// the weight mass near the bottom of the weight range (low relative
// conductance), which is the aging mechanism of Section IV-A.
func TestSkewedTrainingShiftsDistribution(t *testing.T) {
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 240, TestN: 80, C: 3, H: 8, W: 8, Noise: 0.15, Seed: 22}
	trainDS, testDS := dataset.MustGenerate(cfg)

	runWith := func(reg Regularizer, warmup int) (*nn.Network, Result) {
		net, err := nn.NewMLP("m", []int{trainDS.SampleSize(), 24, 4}, tensor.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Train(net, trainDS, testDS, Config{
			Epochs: 6, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1, Reg: reg, RegWarmup: warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net, res
	}

	l2Net, l2Res := runWith(L2{Lambda: 1e-4}, 0)

	betas := BetasFromNetwork(l2Net, -0.5) // wall at the left edge of the distribution
	skew, err := NewSkewed(0.5, 0.005, betas)
	if err != nil {
		t.Fatal(err)
	}
	skNet, skRes := runWith(skew, 2)

	l2Pos := relConductancePosition(l2Net)
	skPos := relConductancePosition(skNet)
	if skPos >= l2Pos-0.05 {
		t.Fatalf("skewed training must push mass to low conductance: L2 position %.3f, skewed %.3f", l2Pos, skPos)
	}
	// The skewed distribution has a right tail: positive skewness.
	if SkewnessOf(GatherWeights(skNet)) <= SkewnessOf(GatherWeights(l2Net)) {
		t.Fatal("skewed training must increase weight skewness (right tail)")
	}
	// Accuracy must stay usable (paper: slight drop for LeNet is fine).
	if skRes.FinalTestAcc < l2Res.FinalTestAcc-0.15 {
		t.Fatalf("skewed training lost too much accuracy: %.3f vs %.3f", skRes.FinalTestAcc, l2Res.FinalTestAcc)
	}
}

func TestNetworkStatsAndGatherWeights(t *testing.T) {
	net := tinyNet(t, 8)
	stats := NetworkStats(net)
	if len(stats) != 2 {
		t.Fatalf("stats count = %d, want 2", len(stats))
	}
	total := 0
	for _, s := range stats {
		total += s.Count
		if s.Std <= 0 {
			t.Fatalf("layer %s std = %g, want > 0 after init", s.Name, s.Std)
		}
		if s.String() == "" {
			t.Fatal("stats row must render")
		}
	}
	if got := len(GatherWeights(net)); got != total {
		t.Fatalf("GatherWeights length %d, want %d", got, total)
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	net := tinyNet(t, 9)
	empty := &dataset.Dataset{Images: tensor.New(0, 4), NumClasses: 3, C: 1, H: 2, W: 2}
	if Evaluate(net, empty, 4) != 0 {
		t.Fatal("empty dataset accuracy must be 0")
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
