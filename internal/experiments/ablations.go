package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
	"memlife/internal/spec"
)

// ablation is one ablation sweep of the LeNet-5 case: a table of
// variant rows, each one arm.
type ablation struct {
	id, title, heading string
	rows               []ablationRow
}

// ablationRow is one configuration of an ablation sweep: the variant
// and scenario cells it prints, and its edit of the base spec.
type ablationRow struct {
	variant, scenario string
	edit              func(*spec.Spec)
}

// burnIn pre-ages the arrays so the initial aging-aware mapping depends
// on the compared mechanism: on a fresh array every range selection
// picks the same (fresh) range and the comparison would be vacuous.
func burnIn(s *spec.Spec) { s.Lifetime.BurnInStress = 3 }

// stressRow is one arm of the stress-model ablation.
func stressRow(variant string, uniform bool, sc lifetime.Scenario) ablationRow {
	return ablationRow{variant, sc.String(), func(s *spec.Spec) {
		s.Scenario = sc.String()
		s.Device.UniformStress = uniform
	}}
}

// stressRows compares the power-proportional stress model (the
// mechanism that lets skewed weights slow aging) against uniform
// per-pulse stress. Under uniform stress the ST+T advantage over T+T
// should shrink to the quantization benefit alone.
func stressRows() []ablationRow {
	return []ablationRow{
		stressRow("power-proportional stress", false, lifetime.TT),
		stressRow("power-proportional stress", false, lifetime.STT),
		stressRow("uniform per-pulse stress", true, lifetime.TT),
		stressRow("uniform per-pulse stress", true, lifetime.STT),
	}
}

// tracingRows sweeps the representative-tracing stride of Section
// IV-B: 1 (trace everything), 3 (the paper's 1-of-9), 5 (1-of-25) on
// pre-aged arrays; sparser tracing estimates the common range from
// fewer devices.
func tracingRows() []ablationRow {
	var rows []ablationRow
	for _, stride := range []int{1, 3, 5} {
		rows = append(rows, ablationRow{fmt.Sprintf("trace 1-of-%d (stride %d)", stride*stride, stride), "ST+AT", func(s *spec.Spec) {
			s.Scenario = lifetime.STAT.String()
			s.Lifetime.TraceStride = stride
			burnIn(s)
		}})
	}
	return rows
}

// levelRows compares the 32-level device of [14] against the 64-level
// device of [15]. More levels quantize more accurately but each level
// step is smaller, so aged ranges lose levels faster.
func levelRows() []ablationRow {
	var rows []ablationRow
	for _, v := range []struct {
		name string
		p    device.Params
	}{{"32 levels [14]", device.Params32()}, {"64 levels [15]", device.Params64()}} {
		rows = append(rows, ablationRow{v.name, "ST+AT", func(s *spec.Spec) {
			s.Scenario = lifetime.STAT.String()
			s.Device = v.p
		}})
	}
	return rows
}

// policyRows compares the iterative accuracy-driven selection of
// Section IV-B against the simpler worst-case, mean-bound and fresh
// policies, all under skewed weights on pre-aged arrays.
func policyRows() []ablationRow {
	var rows []ablationRow
	for _, pol := range []mapping.PolicyKind{mapping.AgingAware, mapping.WorstCase, mapping.MeanBound, mapping.Fresh} {
		rows = append(rows, ablationRow{pol.String(), "ST+<policy>", func(s *spec.Spec) {
			s.Scenario = lifetime.STAT.String()
			s.Policy = pol.String()
			burnIn(s)
		}})
	}
	return rows
}

func init() {
	for _, a := range []ablation{
		{"ablation-stress", "Ablation: power-proportional vs uniform per-pulse aging stress", "Ablation — stress model", stressRows()},
		{"ablation-tracing", "Ablation: representative-tracing density (1-of-1/9/25)", "Ablation — tracing density", tracingRows()},
		{"ablation-levels", "Ablation: 32-level vs 64-level devices", "Ablation — quantization levels", levelRows()},
		{"ablation-policy", "Ablation: aged-range selection policy", "Ablation — range-selection policy", policyRows()},
	} {
		arms := make([]arm, len(a.rows))
		for i, r := range a.rows {
			arms[i] = arm{r.variant + " " + r.scenario, r.edit}
		}
		registerArms(armExperiment{
			id:       a.id,
			title:    a.title,
			fixtures: []string{spec.FixtureLeNet},
			arms:     arms,
			render: func(w io.Writer, runs []armRun) {
				var cells [][]string
				for i, r := range a.rows {
					res := runs[0].res[i]
					cells = append(cells, []string{r.variant, r.scenario, lifeCell(res.Lifetime, !res.Failed)})
				}
				fmt.Fprintln(w, a.heading)
				fmt.Fprint(w, analysis.Table([]string{"variant", "scenario", "lifetime (apps)"}, cells))
			},
		})
	}
}
