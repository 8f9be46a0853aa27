package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/telemetry"
)

// Fig4Point is one sample of the aged-range trajectory of Fig. 4.
type Fig4Point struct {
	Stress       float64
	UpperBound   float64
	LowerBound   float64
	UsableLevels int
}

// Fig4 reproduces Fig. 4: the resistance range of a single device as a
// function of accumulated programming stress, and the resulting decay
// of the usable level count (the paper's sketch shows 8 fresh levels
// decaying to 3; our device has 32).
func Fig4(opt Options) ([]Fig4Point, error) {
	p := DeviceParams()
	m := AgingModel()
	var out []Fig4Point
	points := 25
	if opt.Fast {
		points = 10
	}
	// Geometric stress sweep from fresh to heavily worn.
	tl := telemetry.T("fig4/timeline")
	stress := 0.0
	step := 1.0
	for i := 0; i < points; i++ {
		lo, hi := m.Bounds(p, stress, TempK)
		n := p.Grid().UsableLevels(lo, hi)
		out = append(out, Fig4Point{
			Stress:       stress,
			UpperBound:   hi,
			LowerBound:   lo,
			UsableLevels: n,
		})
		tl.Append(map[string]float64{
			"stress":        stress,
			"upper_bound":   hi,
			"lower_bound":   lo,
			"usable_levels": float64(n),
		})
		stress += step
		step *= 1.5
	}
	return out, nil
}

func init() {
	register(Experiment{
		ID:      "fig4",
		Title:   "Fig. 4: aged resistance range and usable levels vs programming stress",
		Metrics: fig4Metrics,
		Run: func(w io.Writer, opt Options) error {
			pts, err := Fig4(opt)
			if err != nil {
				return err
			}
			var cells [][]string
			for _, pt := range pts {
				cells = append(cells, []string{
					fmt.Sprintf("%.3g", pt.Stress),
					fmt.Sprintf("%.0f", pt.LowerBound),
					fmt.Sprintf("%.0f", pt.UpperBound),
					fmt.Sprintf("%d", pt.UsableLevels),
				})
			}
			fmt.Fprintln(w, "Fig. 4 — aging of one device (stress in reference-pulse units)")
			fmt.Fprint(w, analysis.Table(
				[]string{"stress", "R_aged_min", "R_aged_max", "usable levels"},
				cells))
			fmt.Fprintln(w, "paper reference: both bounds decrease with t; level count decays (8 -> 3 in the sketch)")
			return nil
		},
	})
}
