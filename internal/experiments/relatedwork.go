package experiments

import (
	"fmt"
	"io"
	"math"

	"memlife/internal/analysis"
	"memlife/internal/counteraging"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// relatedWorkRow is one technique of the related-work comparison.
type relatedWorkRow struct {
	technique string
	sc        lifetime.Scenario
	// cost names the overhead the technique pays (the paper's argument
	// is that the proposed framework pays none).
	cost string
	// edit changes the base technology; nil keeps it.
	edit func(*spec.Spec)
}

// relatedWorkRows compares the prior-art counter-aging techniques of
// the paper's related-work section ([9] shaped pulses, [11] series
// resistor) against the paper's framework (ST+T, ST+AT), all on the
// LeNet-5 case. The row-swapping technique of [12] is not modelled: it
// changes the mapping plumbing rather than the device physics, so it
// does not fit the same lifetime harness.
func relatedWorkRows() []relatedWorkRow {
	pulse := func(shape counteraging.PulseShape) func(*spec.Spec) {
		return func(s *spec.Spec) { s.Device = counteraging.ApplyPulseShape(s.Device, shape) }
	}
	// Series resistor: the derating depends on the instantaneous device
	// resistance; a representative static factor is taken at the
	// geometric-mean resistance of the range.
	series := func(s *spec.Spec) {
		rs := counteraging.SeriesResistorParams{Params: s.Device, Rs: 10e3}
		s.Device.StressDerate = rs.StressDerating(math.Sqrt(s.Device.RminFresh * s.Device.RmaxFresh))
	}
	return []relatedWorkRow{
		{"none (baseline)", lifetime.TT, "-", nil},
		{"triangular pulses [9]", lifetime.TT, "3x programming time", pulse(counteraging.PulseTriangular)},
		{"sinusoidal pulses [9]", lifetime.TT, "2x programming time", pulse(counteraging.PulseSinusoidal)},
		{"series resistor [11]", lifetime.TT, "1 resistor per cell", series},
		{"skewed training (this work)", lifetime.STT, "none", nil},
		{"skewed + aging-aware (this work)", lifetime.STAT, "none", nil},
	}
}

func init() {
	rows := relatedWorkRows()
	arms := make([]arm, len(rows))
	for i, r := range rows {
		arms[i] = arm{r.technique, func(s *spec.Spec) {
			s.Scenario = r.sc.String()
			if r.edit != nil {
				r.edit(s)
			}
		}}
	}
	registerArms(armExperiment{
		id:       "related-work",
		title:    "Related work: prior counter-aging techniques vs the proposed framework",
		fixtures: []string{spec.FixtureLeNet},
		arms:     arms,
		render: func(w io.Writer, runs []armRun) {
			var cells [][]string
			for i, r := range rows {
				res := runs[0].res[i]
				cells = append(cells, []string{r.technique, r.sc.String(), lifeCell(res.Lifetime, !res.Failed), r.cost})
			}
			fmt.Fprintln(w, "Related-work comparison (LeNet-5 case)")
			fmt.Fprint(w, analysis.Table([]string{"technique", "scenario", "lifetime (apps)", "overhead"}, cells))
		},
	})
}
