package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/crossbar"
	"memlife/internal/device"
	"memlife/internal/nn"
	"memlife/internal/train"
)

// quantizedResistances maps every weight of net onto the fresh level
// grid (eq. (4) + quantization, per layer) and returns the programmed
// resistances — the data behind Fig. 3(b) and Fig. 6(b).
func quantizedResistances(net *nn.Network, p device.Params) []float64 {
	var out []float64
	g := p.Grid()
	for _, wp := range net.WeightParams() {
		wMin, wMax := wp.W.MinMax()
		for _, w := range wp.W.Data() {
			target := crossbar.TargetResistance(w, wMin, wMax, p.RminFresh, p.RmaxFresh)
			out = append(out, g.LevelResistance(g.NearestLevel(target)))
		}
	}
	return out
}

// DistributionResult bundles the three histograms of Fig. 3 / Fig. 6.
type DistributionResult struct {
	Network string
	Skewed  bool
	// WeightHist is the trained weight distribution (Fig. 3a / 6a).
	WeightHist analysis.Histogram
	// ResistanceHist is the post-mapping, quantized resistance
	// distribution (Fig. 3b / 6b).
	ResistanceHist analysis.Histogram
	// ConductanceHist is the same data in conductance (Fig. 3c).
	ConductanceHist analysis.Histogram
	// WeightSkewness quantifies the weight distribution's asymmetry.
	WeightSkewness float64
	// HighResistanceMass is the fraction of devices programmed above
	// the middle of the resistance range.
	HighResistanceMass float64
	// MeanRelConductance is the mean of (g - gMin)/(gMax - gMin) over
	// all programmed devices — the aging-relevant quantity, since a
	// programming pulse's stress is proportional to conductance.
	// Conventional training sits near 0.5; skewed training pushes it
	// towards 0 (Section IV-A).
	MeanRelConductance float64
}

// distributions computes the Fig. 3 (normal) or Fig. 6 (skewed)
// histograms for a trained network.
func distributions(net *nn.Network, name string, skewed bool) DistributionResult {
	p := DeviceParams()
	weights := train.GatherWeights(net)
	res := quantizedResistances(net, p)
	cond := make([]float64, len(res))
	for i, r := range res {
		cond[i] = 1 / r
	}
	rMid := (p.RminFresh + p.RmaxFresh) / 2
	relCond := 0.0
	for _, g := range cond {
		relCond += (g - p.GminFresh()) / (p.GmaxFresh() - p.GminFresh())
	}
	relCond /= float64(len(cond))
	resHist := analysis.NewHistogramRange(res, p.RminFresh, p.RmaxFresh, 16)
	return DistributionResult{
		MeanRelConductance: relCond,
		Network:            name,
		Skewed:             skewed,
		WeightHist:         analysis.NewHistogram(weights, 16),
		ResistanceHist:     resHist,
		ConductanceHist:    analysis.NewHistogramRange(cond, p.GminFresh(), p.GmaxFresh(), 16),
		WeightSkewness:     train.SkewnessOf(weights),
		HighResistanceMass: 1 - resHist.MassBelow(rMid),
	}
}

// Fig3 reproduces Fig. 3: distributions after conventional training.
func Fig3(opt Options) (DistributionResult, error) {
	b, err := LeNetBundle(opt)
	if err != nil {
		return DistributionResult{}, err
	}
	return distributions(b.Normal, b.Name, false), nil
}

// Fig6 reproduces Fig. 6: distributions after skewed training.
func Fig6(opt Options) (DistributionResult, error) {
	b, err := LeNetBundle(opt)
	if err != nil {
		return DistributionResult{}, err
	}
	return distributions(b.Skewed, b.Name, true), nil
}

func renderDistributions(w io.Writer, fig string, d DistributionResult) {
	kind := "conventional (L2)"
	if d.Skewed {
		kind = "skewed"
	}
	fmt.Fprintf(w, "%s — %s, %s training\n", fig, d.Network, kind)
	fmt.Fprintf(w, "weight skewness: %+.3f   high-resistance mass: %.3f   mean relative conductance: %.3f\n",
		d.WeightSkewness, d.HighResistanceMass, d.MeanRelConductance)
	fmt.Fprintln(w, "(a) trained weight distribution:")
	fmt.Fprint(w, d.WeightHist.Render(40))
	fmt.Fprintln(w, "(b) quantized resistance distribution (Ohm):")
	fmt.Fprint(w, d.ResistanceHist.Render(40))
	fmt.Fprintln(w, "(c) quantized conductance distribution (S):")
	fmt.Fprint(w, d.ConductanceHist.Render(40))
}

// Fig7Result samples the two-segment regularizer of eq. (8)-(10)
// against the trained weight distribution (Fig. 7).
type Fig7Result struct {
	Beta       float64
	Lambda1    float64
	Lambda2    float64
	Penalty    analysis.Series // pointwise penalty over the weight range
	WeightHist analysis.Histogram
}

// Fig7 reproduces Fig. 7 for the first LeNet layer.
func Fig7(opt Options) (Fig7Result, error) {
	b, err := LeNetBundle(opt)
	if err != nil {
		return Fig7Result{}, err
	}
	stats := train.NetworkStats(b.Normal)
	beta := b.Skew.BetaFactor * stats[0].Std
	wp := b.Normal.WeightParams()[0]
	wMin, wMax := wp.W.MinMax()
	reg, err := train.NewSkewed(b.Skew.Lambda1, b.Skew.Lambda2, nil)
	if err != nil {
		return Fig7Result{}, err
	}
	out := Fig7Result{
		Beta: beta, Lambda1: b.Skew.Lambda1, Lambda2: b.Skew.Lambda2,
		WeightHist: analysis.NewHistogram(wp.W.Data(), 16),
	}
	out.Penalty.Name = "two-segment penalty R1/R2"
	const samples = 41
	for i := 0; i < samples; i++ {
		x := wMin + (wMax-wMin)*float64(i)/float64(samples-1)
		out.Penalty.AddPoint(x, reg.PenaltyAt(x, beta))
	}
	return out, nil
}

// Fig9Result is the skewed weight histogram of the third layer of
// VGG-16 (Fig. 9).
type Fig9Result struct {
	Network  string
	Layer    string
	Hist     analysis.Histogram
	Mean     float64
	Skewness float64
}

// Fig9 reproduces Fig. 9.
func Fig9(opt Options) (Fig9Result, error) {
	b, err := VGGBundle(opt)
	if err != nil {
		return Fig9Result{}, err
	}
	third := b.Skewed.WeightLayers()[2] // conv3, the paper's example layer
	w := third.Param.W.Data()
	return Fig9Result{
		Network:  b.Name,
		Layer:    third.Param.Name,
		Hist:     analysis.NewHistogram(w, 16),
		Mean:     third.Param.W.Mean(),
		Skewness: train.SkewnessOf(w),
	}, nil
}

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Fig. 3: weight/resistance/conductance distributions, conventional training",
		Run: func(w io.Writer, opt Options) error {
			d, err := Fig3(opt)
			if err != nil {
				return err
			}
			renderDistributions(w, "Fig. 3", d)
			return nil
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Fig. 6: weight/resistance distributions, skewed training",
		Run: func(w io.Writer, opt Options) error {
			d, err := Fig6(opt)
			if err != nil {
				return err
			}
			renderDistributions(w, "Fig. 6", d)
			return nil
		},
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: two-segment regularization penalty vs trained weights",
		Run: func(w io.Writer, opt Options) error {
			r, err := Fig7(opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Fig. 7 — beta=%.4f lambda1=%g lambda2=%g\n", r.Beta, r.Lambda1, r.Lambda2)
			fmt.Fprint(w, r.Penalty.Render())
			fmt.Fprintln(w, "trained weight distribution:")
			fmt.Fprint(w, r.WeightHist.Render(40))
			return nil
		},
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: skewed weight distribution of VGG-16 layer 3",
		Run: func(w io.Writer, opt Options) error {
			r, err := Fig9(opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Fig. 9 — %s %s: mean=%+.4f skewness=%+.3f\n", r.Network, r.Layer, r.Mean, r.Skewness)
			fmt.Fprint(w, r.Hist.Render(40))
			return nil
		},
	})
}
