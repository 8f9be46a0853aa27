package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// temperatureCell is one operating point of the temperature sweep.
type temperatureCell struct {
	tempK float64
	sc    lifetime.Scenario
}

// temperatureCells is an extension beyond the paper's evaluation: the
// aging functions of eq. (6)/(7) are Arrhenius-accelerated, so the
// operating temperature directly scales the aging clock. The sweep
// measures T+T and ST+T lifetimes across operating temperatures and
// checks that the skewed-training advantage survives thermal
// acceleration (both scenarios share the Arrhenius factor). The target
// is derived at the base operating point (300 K), so all temperatures
// serve the same accuracy contract.
func temperatureCells() []temperatureCell {
	var cells []temperatureCell
	for _, tK := range []float64{294, 300, 306} {
		for _, sc := range []lifetime.Scenario{lifetime.TT, lifetime.STT} {
			cells = append(cells, temperatureCell{tK, sc})
		}
	}
	return cells
}

func init() {
	grid := temperatureCells()
	arms := make([]arm, len(grid))
	for i, c := range grid {
		arms[i] = arm{fmt.Sprintf("%gK %s", c.tempK, c.sc), func(s *spec.Spec) {
			s.Scenario = c.sc.String()
			s.TempK = c.tempK
		}}
	}
	registerArms(armExperiment{
		id:       "temperature",
		title:    "Extension: lifetime vs operating temperature (Arrhenius sweep)",
		fixtures: []string{spec.FixtureLeNet},
		arms:     arms,
		render: func(w io.Writer, runs []armRun) {
			var cells [][]string
			for i, c := range grid {
				res := runs[0].res[i]
				cells = append(cells, []string{
					fmt.Sprintf("%.0f", c.tempK),
					fmt.Sprintf("%.2fx", runs[0].b.Spec.Aging.Accel(c.tempK)),
					c.sc.String(),
					lifeCell(res.Lifetime, !res.Failed),
				})
			}
			fmt.Fprintln(w, "Extension — lifetime vs operating temperature (LeNet-5)")
			fmt.Fprint(w, analysis.Table([]string{"T (K)", "aging accel", "scenario", "lifetime (apps)"}, cells))
			fmt.Fprintln(w, "reading: heat shortens every lifetime; the ST advantage persists because both scenarios share the Arrhenius factor")
		},
	})
}
