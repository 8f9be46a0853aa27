package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/crossbar"
	"memlife/internal/mapping"
	"memlife/internal/spec"
	"memlife/internal/tensor"
)

// Fig8Result records one iterative range selection on an aged layer:
// every candidate upper bound with its evaluated accuracy, plus the
// winner (the data behind Fig. 8).
type Fig8Result struct {
	Layer      string
	Candidates []mapping.CandidateScore
	ChosenRHi  float64
	FreshRHi   float64
}

// Fig8 ages the first LeNet conv layer unevenly (so traced devices
// disagree about the aged bound), then runs the aging-aware iterative
// selection and reports the candidate scores.
func Fig8(opt Options) (Fig8Result, error) {
	s := BaseSpec(spec.FixtureLeNet, opt)
	b, err := BundleForSpec(s, opt)
	if err != nil {
		return Fig8Result{}, err
	}
	mn, err := crossbar.NewMappedNetwork(b.Skewed, s.Device, s.Aging, s.TempK)
	if err != nil {
		return Fig8Result{}, err
	}
	// Age layer 0 with spatially varying intensity: device (i,j)
	// gets cycled proportionally to its row index, like the
	// M1/M2/M3 sketch of Fig. 8 where traced devices have degraded
	// by different amounts.
	cb := mn.Layers[0].Crossbar
	p := cb.Params()
	rng := tensor.NewRNG(opt.Seed)
	for i := 0; i < cb.Rows; i++ {
		cycles := 1 + (3*i)/cb.Rows + rng.Intn(2)
		for j := 0; j < cb.Cols; j++ {
			d := cb.Device(i, j)
			for k := 0; k < cycles; k++ {
				d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
				d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
			}
		}
	}
	evalDS := b.TrainDS.Subset(96)
	eb := evalDS.Batches(evalDS.Len(), nil)[0]
	mapCfg := s.Lifetime.Mapping
	mapCfg.Policy = mapping.AgingAware
	res, err := mapping.Map(mn, mapCfg, eb.X, eb.Y)
	if err != nil {
		return Fig8Result{}, err
	}
	sel := res.Selections[0]
	return Fig8Result{
		Layer:      sel.Layer,
		Candidates: sel.Candidates,
		ChosenRHi:  sel.RHi,
		FreshRHi:   p.RmaxFresh,
	}, nil
}

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: iterative common-range selection on an unevenly aged layer",
		Run: func(w io.Writer, opt Options) error {
			r, err := Fig8(opt)
			if err != nil {
				return err
			}
			var cells [][]string
			for _, c := range r.Candidates {
				marker := ""
				if c.RHi == r.ChosenRHi {
					marker = "<== selected"
				}
				cells = append(cells, []string{
					fmt.Sprintf("%.0f", c.RHi),
					fmt.Sprintf("%.3f", c.Accuracy),
					marker,
				})
			}
			fmt.Fprintf(w, "Fig. 8 — candidate aged upper bounds for layer %s (fresh bound %.0f)\n", r.Layer, r.FreshRHi)
			fmt.Fprint(w, analysis.Table([]string{"candidate R_aged_max", "accuracy", ""}, cells))
			return nil
		},
	})
}
