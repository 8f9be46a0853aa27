package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/train"
)

// Table2Row reports the skewed-training constants of one network
// (Table II of the paper): beta_i = BetaFactor * sigma_i per layer plus
// the two segment penalties.
type Table2Row struct {
	Network    string
	Layer      string
	Sigma      float64 // sigma_i of the conventionally trained layer
	Beta       float64 // reference weight actually used
	Lambda1    float64
	Lambda2    float64
	SkewedMean float64 // resulting mean weight after skewed training
	SkewedSkew float64 // resulting sample skewness
}

// Table2 reproduces Table II: the constants per network and the
// per-layer reference weights they induce, along with the resulting
// skewed distributions.
func Table2(opt Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, mk := range []func(Options) (*Bundle, error){LeNetBundle, VGGBundle} {
		b, err := mk(opt)
		if err != nil {
			return nil, err
		}
		normalStats := train.NetworkStats(b.Normal)
		skewedStats := train.NetworkStats(b.Skewed)
		for i, ns := range normalStats {
			rows = append(rows, Table2Row{
				Network:    b.Name,
				Layer:      ns.Name,
				Sigma:      ns.Std,
				Beta:       b.Skew.BetaFactor * ns.Std,
				Lambda1:    b.Skew.Lambda1,
				Lambda2:    b.Skew.Lambda2,
				SkewedMean: skewedStats[i].Mean,
				SkewedSkew: skewedStats[i].Skewness,
			})
		}
	}
	return rows, nil
}

func renderTable2(w io.Writer, rows []Table2Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Network, r.Layer,
			fmt.Sprintf("%.4f", r.Sigma),
			fmt.Sprintf("%.4f", r.Beta),
			fmt.Sprintf("%g", r.Lambda1),
			fmt.Sprintf("%g", r.Lambda2),
			fmt.Sprintf("%+.4f", r.SkewedMean),
			fmt.Sprintf("%+.3f", r.SkewedSkew),
		})
	}
	fmt.Fprintln(w, "Table II — skewed-training constants (beta_i = c * sigma_i) and resulting distributions")
	fmt.Fprint(w, analysis.Table(
		[]string{"network", "layer", "sigma_i", "beta_i", "lambda1", "lambda2", "skew mean", "skewness"},
		cells))
	fmt.Fprintln(w, "paper reference: LeNet-5 uses lambda1 >> lambda2; VGG-16 uses lambda1 == lambda2")
}

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Table II: skewed-training parameters per network",
		Run: func(w io.Writer, opt Options) error {
			rows, err := Table2(opt)
			if err != nil {
				return err
			}
			renderTable2(w, rows)
			return nil
		},
	})
}
