package experiments

import (
	"fmt"
	"io"
	"math"

	"memlife/internal/analysis"
	"memlife/internal/counteraging"
	"memlife/internal/device"
	"memlife/internal/lifetime"
)

// RelatedWorkRow is one technique of the related-work comparison.
type RelatedWorkRow struct {
	Technique string
	Scenario  string
	Lifetime  int64
	Censored  bool
	// Cost names the overhead the technique pays (the paper's argument
	// is that the proposed framework pays none).
	Cost string
}

// RelatedWork compares the prior-art counter-aging techniques of the
// paper's related-work section ([9] shaped pulses, [11] series
// resistor) against the paper's framework (ST+T, ST+AT), all on the
// LeNet-5 case. The row-swapping technique of [12] is not modelled: it
// changes the mapping plumbing rather than the device physics, so it
// does not fit the same lifetime harness.
func RelatedWork(opt Options) ([]RelatedWorkRow, error) {
	b, err := LeNetBundle(opt)
	if err != nil {
		return nil, err
	}
	target, err := specTarget(b, b.Spec)
	if err != nil {
		return nil, err
	}

	base := b.Spec.Device
	// Series resistor: the derating depends on the instantaneous device
	// resistance; a representative static factor is taken at the
	// geometric-mean resistance of the range.
	rs := counteraging.SeriesResistorParams{Params: base, Rs: 10e3}
	seriesParams := base
	seriesParams.StressDerate = rs.StressDerating(math.Sqrt(base.RminFresh * base.RmaxFresh))

	runs := []struct {
		row RelatedWorkRow
		p   device.Params
		sc  lifetime.Scenario
	}{
		{RelatedWorkRow{Technique: "none (baseline)", Scenario: "T+T", Cost: "-"}, base, lifetime.TT},
		{RelatedWorkRow{Technique: "triangular pulses [9]", Scenario: "T+T", Cost: "3x programming time"},
			counteraging.ApplyPulseShape(base, counteraging.PulseTriangular), lifetime.TT},
		{RelatedWorkRow{Technique: "sinusoidal pulses [9]", Scenario: "T+T", Cost: "2x programming time"},
			counteraging.ApplyPulseShape(base, counteraging.PulseSinusoidal), lifetime.TT},
		{RelatedWorkRow{Technique: "series resistor [11]", Scenario: "T+T", Cost: "1 resistor per cell"}, seriesParams, lifetime.TT},
		{RelatedWorkRow{Technique: "skewed training (this work)", Scenario: "ST+T", Cost: "none"}, base, lifetime.STT},
		{RelatedWorkRow{Technique: "skewed + aging-aware (this work)", Scenario: "ST+AT", Cost: "none"}, base, lifetime.STAT},
	}

	var rows []RelatedWorkRow
	for _, r := range runs {
		s := b.Spec
		s.Scenario = r.sc.String()
		s.Device = r.p
		res, err := runSpec(b, s, opt, target)
		if err != nil {
			return nil, err
		}
		row := r.row
		row.Lifetime = res.Lifetime
		row.Censored = !res.Failed
		rows = append(rows, row)
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "related-work",
		Title: "Related work: prior counter-aging techniques vs the proposed framework",
		Run: func(w io.Writer, opt Options) error {
			rows, err := RelatedWork(opt)
			if err != nil {
				return err
			}
			var cells [][]string
			for _, r := range rows {
				life := fmt.Sprintf("%d", r.Lifetime)
				if r.Censored {
					life = ">=" + life
				}
				cells = append(cells, []string{r.Technique, r.Scenario, life, r.Cost})
			}
			fmt.Fprintln(w, "Related-work comparison (LeNet-5 case)")
			fmt.Fprint(w, analysis.Table([]string{"technique", "scenario", "lifetime (apps)", "overhead"}, cells))
			return nil
		},
	})
}
