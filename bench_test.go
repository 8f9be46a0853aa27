package memlife_test

// One benchmark per reproduced table and figure of the paper (see
// DESIGN.md section 4), plus the ablation benches of section 5 and a
// set of micro-benchmarks for the hot kernels. The macro benches run
// the same experiment drivers the CLI uses, at the reduced "fast"
// scale; the regenerated rows/series go to the benchmark log when run
// with -v via b.Log.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/experiments"
	"memlife/internal/fleet"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/spec"
	"memlife/internal/telemetry"
	"memlife/internal/tensor"
	"memlife/internal/train"
	"memlife/internal/tuning"
)

var benchOpt = experiments.Options{Fast: true, Seed: 1}

// benchSpec supplies the device, aging calibration and temperature of
// every experiment.
var benchSpec = spec.Defaults(spec.FixtureLeNet, false)

// benchLifetimeConfig is the shortened budget macro benches use so a
// single iteration stays in the seconds range.
func benchLifetimeConfig(target float64) lifetime.Config {
	cfg := lifetime.DefaultConfig()
	cfg.TargetAcc = target
	cfg.AppsPerCycle = 1000
	cfg.MaxCycles = 12
	cfg.Tuning.MaxIters = 20
	cfg.EvalN = 48
	return cfg
}

var (
	leNetOnce sync.Once
	leNetB    *experiments.Bundle
	leNetErr  error

	targetOnce sync.Once
	targetVal  float64
	targetErr  error
)

// benchTarget memoizes the per-bundle scenario target accuracy.
func benchTarget(b *testing.B, bundle *experiments.Bundle) float64 {
	b.Helper()
	targetOnce.Do(func() { targetVal, targetErr = experiments.ScenarioTarget(bundle, benchOpt) })
	if targetErr != nil {
		b.Fatal(targetErr)
	}
	return targetVal
}

func leNetBundle(b *testing.B) *experiments.Bundle {
	b.Helper()
	leNetOnce.Do(func() { leNetB, leNetErr = experiments.LeNetBundle(benchOpt) })
	if leNetErr != nil {
		b.Fatal(leNetErr)
	}
	return leNetB
}

var (
	vggOnce sync.Once
	vggB    *experiments.Bundle
	vggErr  error
)

func vggBundle(b *testing.B) *experiments.Bundle {
	b.Helper()
	vggOnce.Do(func() { vggB, vggErr = experiments.VGGBundle(benchOpt) })
	if vggErr != nil {
		b.Fatal(vggErr)
	}
	return vggB
}

// BenchmarkTable1Lifetime regenerates the Table I lifetime comparison
// (T+T vs ST+T vs ST+AT) on the LeNet-5 case at bench scale.
func BenchmarkTable1Lifetime(b *testing.B) {
	bundle := leNetBundle(b)
	base := bundle.Spec
	base.Lifetime = benchLifetimeConfig(benchTarget(b, bundle))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Table1Bundle(bundle, base, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if row.LifeTT > row.LifeSTT {
			b.Fatalf("Table I ordering violated: T+T %d > ST+T %d", row.LifeTT, row.LifeSTT)
		}
	}
}

// BenchmarkTable2SkewedTraining regenerates the Table II parameter rows.
func BenchmarkTable2SkewedTraining(b *testing.B) {
	bundle := leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := train.NetworkStats(bundle.Skewed)
		if len(stats) != 5 {
			b.Fatalf("LeNet-5 must report 5 weight layers, got %d", len(stats))
		}
	}
}

// BenchmarkFig3Distributions regenerates the conventional-training
// distribution histograms of Fig. 3.
func BenchmarkFig3Distributions(b *testing.B) {
	leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig3(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if d.MeanRelConductance < 0.3 {
			b.Fatalf("conventional training should sit mid-range, got %g", d.MeanRelConductance)
		}
	}
}

// BenchmarkFig4AgingBounds regenerates the aged-range trajectory of
// Fig. 4.
func BenchmarkFig4AgingBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if pts[len(pts)-1].UsableLevels >= pts[0].UsableLevels {
			b.Fatal("levels must decay with stress")
		}
	}
}

// BenchmarkFig6SkewedDistributions regenerates the skewed-training
// distribution histograms of Fig. 6.
func BenchmarkFig6SkewedDistributions(b *testing.B) {
	leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig6(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if d.MeanRelConductance > 0.4 {
			b.Fatalf("skewed training should push towards low conductance, got %g", d.MeanRelConductance)
		}
	}
}

// BenchmarkFig7RegularizerShape regenerates the penalty curves of Fig. 7.
func BenchmarkFig7RegularizerShape(b *testing.B) {
	leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Penalty.X) == 0 {
			b.Fatal("penalty series must not be empty")
		}
	}
}

// BenchmarkFig8RangeSelection regenerates the iterative common-range
// selection of Fig. 8 on an unevenly aged layer.
func BenchmarkFig8RangeSelection(b *testing.B) {
	leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Candidates) == 0 {
			b.Fatal("selection must evaluate candidates")
		}
	}
}

// BenchmarkFig9VGGLayer3Histogram regenerates the VGG-16 third-layer
// skewed weight histogram of Fig. 9.
func BenchmarkFig9VGGLayer3Histogram(b *testing.B) {
	vggBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if r.Hist.N == 0 {
			b.Fatal("histogram must not be empty")
		}
	}
}

// BenchmarkFig10TuningTrend regenerates the tuning-iterations-vs-
// applications series of Fig. 10 (LeNet case) at bench scale.
func BenchmarkFig10TuningTrend(b *testing.B) {
	bundle := leNetBundle(b)
	cfg := benchLifetimeConfig(benchTarget(b, bundle))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lifetime.RunCtx(context.Background(), bundle.Normal, bundle.TrainDS, lifetime.TT,
			benchSpec.Device, benchSpec.Aging, benchSpec.TempK, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("run must record cycles")
		}
	}
}

// BenchmarkFig11ConvVsFC regenerates the conv-vs-FC aging curves of
// Fig. 11 at bench scale.
func BenchmarkFig11ConvVsFC(b *testing.B) {
	bundle := leNetBundle(b)
	cfg := benchLifetimeConfig(benchTarget(b, bundle))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lifetime.RunCtx(context.Background(), bundle.Normal, bundle.TrainDS, lifetime.TT,
			benchSpec.Device, benchSpec.Aging, benchSpec.TempK, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range res.Records {
			if rec.ConvUpper <= 0 || rec.FCUpper <= 0 {
				b.Fatal("per-kind upper bounds must be recorded")
			}
		}
	}
}

// BenchmarkAblationStressModel compares power-proportional vs uniform
// per-pulse stress at bench scale (T+T vs ST+T under both).
func BenchmarkAblationStressModel(b *testing.B) {
	bundle := leNetBundle(b)
	cfg := benchLifetimeConfig(benchTarget(b, bundle))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, uniform := range []bool{false, true} {
			p := benchSpec.Device
			p.UniformStress = uniform
			_, err := lifetime.RunCtx(context.Background(), bundle.Skewed, bundle.TrainDS, lifetime.STT,
				p, benchSpec.Aging, benchSpec.TempK, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationTracingDensity sweeps the representative-tracing
// stride (1, 3, 5) at bench scale.
func BenchmarkAblationTracingDensity(b *testing.B) {
	bundle := leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stride := range []int{1, 3, 5} {
			cfg := benchLifetimeConfig(benchTarget(b, bundle))
			cfg.TraceStride = stride
			_, err := lifetime.RunCtx(context.Background(), bundle.Skewed, bundle.TrainDS, lifetime.STAT,
				benchSpec.Device, benchSpec.Aging, benchSpec.TempK, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationLevels compares the 32- and 64-level devices at
// bench scale.
func BenchmarkAblationLevels(b *testing.B) {
	bundle := leNetBundle(b)
	cfg := benchLifetimeConfig(benchTarget(b, bundle))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []device.Params{device.Params32(), device.Params64()} {
			_, err := lifetime.RunCtx(context.Background(), bundle.Skewed, bundle.TrainDS, lifetime.STAT,
				p, benchSpec.Aging, benchSpec.TempK, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationRangePolicy compares the aged-range selection
// policies at bench scale.
func BenchmarkAblationRangePolicy(b *testing.B) {
	bundle := leNetBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range []mapping.PolicyKind{mapping.AgingAware, mapping.WorstCase, mapping.MeanBound} {
			cfg := benchLifetimeConfig(benchTarget(b, bundle))
			p := pol
			cfg.PolicyOverride = &p
			_, err := lifetime.RunCtx(context.Background(), bundle.Skewed, bundle.TrainDS, lifetime.STAT,
				benchSpec.Device, benchSpec.Aging, benchSpec.TempK, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- micro-benchmarks for the hot kernels ----
//
// Their zero-allocation contracts are held by package tests
// (testing.AllocsPerRun); these time them. CI runs each once so they
// keep compiling and running.

func BenchmarkMatMul64(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.New(64, 64)
	y := tensor.New(64, 64)
	out := tensor.New(64, 64)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(y, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := tensor.NewRNG(1)
	in := tensor.New(g.InC, g.InH, g.InW)
	rng.FillNormal(in, 0, 1)
	cols := tensor.New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	pad := make([]float64, g.PaddedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2Col(cols, in, pad, g)
	}
}

// reluSparse fills t with N(0,1) draws clamped at zero, the sparsity
// pattern a ReLU leaves in a conv GEMM's input.
func reluSparse(t *tensor.Tensor, rng *tensor.RNG) {
	rng.FillNormal(t, 0, 1)
	for i, v := range t.Data() {
		if v < 0 {
			t.Data()[i] = 0
		}
	}
}

// BenchmarkConvGEMMLeNetFast times the two conv forward products of
// the fast LeNet for one sample: conv1 [144x75]@[75x6] and conv2
// [36x150]@[150x16], on ReLU-sparse patch matrices.
func BenchmarkConvGEMMLeNetFast(b *testing.B) {
	rng := tensor.NewRNG(1)
	shapes := []struct{ m, k, n int }{{144, 75, 6}, {36, 150, 16}}
	var xs, ws, outs []*tensor.Tensor
	for _, s := range shapes {
		x, w := tensor.New(s.m, s.k), tensor.New(s.k, s.n)
		reluSparse(x, rng)
		rng.FillNormal(w, 0, 1)
		xs, ws, outs = append(xs, x), append(ws, w), append(outs, tensor.New(s.m, s.n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range shapes {
			tensor.MatMulInto(outs[j], xs[j], ws[j])
		}
	}
}

// BenchmarkIm2ColLeNetFast expands one sample through both conv
// geometries of the fast LeNet (3x12x12 and 6x6x6 inputs, 5x5 kernels,
// padding 2).
func BenchmarkIm2ColLeNetFast(b *testing.B) {
	rng := tensor.NewRNG(1)
	geoms := []tensor.ConvGeom{
		{InC: 3, InH: 12, InW: 12, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{InC: 6, InH: 6, InW: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	}
	var ins, cols []*tensor.Tensor
	var pads [][]float64
	for _, g := range geoms {
		in := tensor.New(g.InC, g.InH, g.InW)
		reluSparse(in, rng)
		ins = append(ins, in)
		cols = append(cols, tensor.New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW))
		pads = append(pads, make([]float64, g.PaddedSize()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range geoms {
			tensor.Im2Col(cols[j], ins[j], pads[j], g)
		}
	}
}

func BenchmarkLeNetForward(b *testing.B) {
	rng := tensor.NewRNG(1)
	net, err := nn.NewLeNet5(nn.LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(16, 3*16*16)
	rng.FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// fastVGGConfig is the fast VGG fixture's network (width x0.125).
var fastVGGConfig = nn.VGGConfig{InC: 3, H: 32, W: 32, Classes: 10, WidthMult: 0.125, FCWidth: 64}

// BenchmarkConvVGGFast times one training forward and backward of a
// 32-sample batch through a 3x3, pad-1 conv at each width of the fast
// VGG (8, 16, 32 and 64 channels in and out, at 32, 16, 8 and 4 pixels
// square), on ReLU-sparse inputs and gradients.
func BenchmarkConvVGGFast(b *testing.B) {
	for _, s := range []struct{ width, size int }{{8, 32}, {16, 16}, {32, 8}, {64, 4}} {
		b.Run(fmt.Sprintf("w%d", s.width), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			g := tensor.ConvGeom{InC: s.width, InH: s.size, InW: s.size, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
			l := nn.NewConv2D("conv", g, s.width, rng)
			x := tensor.New(32, l.InputSize())
			dout := tensor.New(32, l.OutputSize(l.InputSize()))
			reluSparse(x, rng)
			reluSparse(dout, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x, true)
				l.Backward(dout)
			}
		})
	}
}

// BenchmarkVGGFastEvalForward times one eval forward of a 64-sample
// batch (the lifetime eval batch) through a fast VGG.
func BenchmarkVGGFastEvalForward(b *testing.B) {
	rng := tensor.NewRNG(1)
	net, err := nn.NewVGG16(fastVGGConfig, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, net.InputSize)
	rng.FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func BenchmarkCrossbarMapWeights(b *testing.B) {
	p := device.Params32()
	rng := tensor.NewRNG(1)
	w := tensor.New(128, 64)
	rng.FillNormal(w, 0, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cb, err := crossbar.New(128, 64, p, aging.DefaultModel(), 300, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	}
}

// BenchmarkReadWeightsInto times one readback of a mapped 128x64
// array: every cell recomputed from device state into a caller-owned
// destination.
func BenchmarkReadWeightsInto(b *testing.B) {
	p := device.Params32()
	rng := tensor.NewRNG(1)
	w := tensor.New(128, 64)
	rng.FillNormal(w, 0, 0.5)
	cb, err := crossbar.New(128, 64, p, aging.DefaultModel(), 300, 0)
	if err != nil {
		b.Fatal(err)
	}
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	dst := tensor.New(128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.ReadWeightsInto(dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneIteration(b *testing.B) {
	cfgDS := dataset.SynthConfig{Classes: 4, TrainN: 96, TestN: 32, C: 3, H: 8, W: 8, Noise: 0.2, Seed: 9}
	trainDS, testDS := dataset.MustGenerate(cfgDS)
	net, err := nn.NewMLP("bench", []int{trainDS.SampleSize(), 24, 4}, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := train.Train(net, trainDS, testDS, train.Config{Epochs: 3, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	mn, err := crossbar.NewMappedNetwork(net, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapping.Map(mn, mapping.Config{Policy: mapping.Fresh}, nil, nil); err != nil {
		b.Fatal(err)
	}
	batch := trainDS.Batches(64, nil)[0]
	tc := lifetime.DefaultConfig().Tuning
	tc.MaxIters, tc.TargetAcc = 2, 1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mn.Drift(0.05, tensor.NewRNG(int64(i)))
		tc.Seed = int64(i)
		if _, err := tuning.Tune(mn, trainDS, batch.X, batch.Y, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// newMicroCrossbar is a mapped 64x64 array (no faults, so reads are
// pure and draw no RNG) and its weight matrix.
func newMicroCrossbar(b *testing.B) (*crossbar.Crossbar, *tensor.Tensor) {
	b.Helper()
	cb, err := crossbar.New(64, 64, device.Params32(), aging.DefaultModel(), 300, 0)
	if err != nil {
		b.Fatal(err)
	}
	w := tensor.New(64, 64)
	tensor.NewRNG(17).FillNormal(w, 0, 0.5)
	p := cb.Params()
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh, false)
	return cb, w
}

// BenchmarkQuantizeWeightsLUT times the software-side quantization pass
// of the range selection: pure LUT arithmetic into a caller-owned
// destination, no device state.
func BenchmarkQuantizeWeightsLUT(b *testing.B) {
	cb, w := newMicroCrossbar(b)
	p := cb.Params()
	dst := tensor.New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.QuantizeWeightsInto(dst, w, p.RminFresh, p.RmaxFresh)
	}
}

// BenchmarkStepDevicesBatch times batched tuning pulses: one
// StepDevices call applying a quarter of the array per op.
func BenchmarkStepDevicesBatch(b *testing.B) {
	cb, _ := newMicroCrossbar(b)
	steps := make([]crossbar.Step, 0, 64*64/4)
	rng := tensor.NewRNG(21)
	for len(steps) < cap(steps) {
		dir := 1
		if rng.Float64() < 0.5 {
			dir = -1
		}
		steps = append(steps, crossbar.Step{I: rng.Intn(64), J: rng.Intn(64), Dir: dir})
	}
	cb.StepDevices(steps, 2) // warm the bounds memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.StepDevices(steps, 2)
	}
}

// BenchmarkModelPulse times the full stochastic pulse path through the
// model zoo: stress accrual, the counter-based C2C draw, the diffusive
// StepG and the window clamp.
func BenchmarkModelPulse(b *testing.B) {
	p := device.Params32()
	p.Model = device.ModelSpec{Kind: device.ModelDiffusive, D2D: 0.05, C2C: 0.02}
	d := device.New(p.Grid(), 42)
	lo, hi := p.RminFresh, p.RmaxFresh
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Pulse(1-2*(i&1), lo, hi)
	}
}

// BenchmarkFleetTick times one event-clock tick of a small fleet under
// the busiest balancer. Tick keeps serving past the configured horizon,
// so b.N is unbounded.
func BenchmarkFleetTick(b *testing.B) {
	cfg := fleet.Defaults(10, true)
	cfg.Balancer = fleet.BalLeastAged
	sim, err := fleet.New(cfg, device.Params32(), aging.DefaultModel(), 300, 42)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sim.Tick() // warm past first-touch growth
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Tick()
	}
}

// BenchmarkTelemetryDisabled times the disabled-telemetry fast path: a
// nil registry hands out nil instruments whose methods are
// single-branch no-ops.
func BenchmarkTelemetryDisabled(b *testing.B) {
	var reg *telemetry.Registry
	c := reg.Counter("bench/disabled")
	h := reg.Histogram("bench/disabled_ns", telemetry.NsBounds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(float64(i))
	}
}
