package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// Table1Row is one network/dataset row of the paper's Table I.
type Table1Row struct {
	Network   string
	Dataset   string
	AccNormal float64 // software accuracy, traditional training
	AccSkewed float64 // software accuracy, skewed training
	LifeTT    int64   // lifetime in applications, T+T
	LifeSTT   int64   // ST+T
	LifeSTAT  int64   // ST+AT
	RatioSTT  float64 // LifeSTT / LifeTT (paper: 6x / 7x)
	RatioSTAT float64 // LifeSTAT / LifeTT (paper: 8x / 11x)
	// Censored marks lifetimes that hit the simulation budget without
	// failing (a lower bound, not an exact lifetime).
	CensoredTT, CensoredSTT, CensoredSTAT bool
}

// table1Arms are the three scenarios of Table I, in column order.
var table1Arms = []arm{scenarioArm(lifetime.TT), scenarioArm(lifetime.STT), scenarioArm(lifetime.STAT)}

// Table1Bundle runs the three scenarios of Table I for one bundle from
// the base spec, changing only its scenario per run. Pass b.Spec for
// the standard experiment budget, or a copy with an edited Lifetime
// section for a shorter one.
func Table1Bundle(b *Bundle, base spec.Spec, opt Options) (Table1Row, error) {
	res, err := runArms("table1", b, base, table1Arms, opt)
	if err != nil {
		return Table1Row{}, err
	}
	return table1Row(armRun{b, res}), nil
}

func table1Row(r armRun) Table1Row {
	tt, stt, stat := r.res[0], r.res[1], r.res[2]
	row := Table1Row{
		Network: r.b.Name, Dataset: r.b.DatasetName,
		AccNormal: r.b.NormalAcc, AccSkewed: r.b.SkewedAcc,
		LifeTT: tt.Lifetime, LifeSTT: stt.Lifetime, LifeSTAT: stat.Lifetime,
		CensoredTT: !tt.Failed, CensoredSTT: !stt.Failed, CensoredSTAT: !stat.Failed,
	}
	if row.LifeTT > 0 {
		row.RatioSTT = float64(row.LifeSTT) / float64(row.LifeTT)
		row.RatioSTAT = float64(row.LifeSTAT) / float64(row.LifeTT)
	}
	return row
}

func renderTable1(w io.Writer, runs []armRun) {
	var cells [][]string
	for _, run := range runs {
		r := table1Row(run)
		cells = append(cells, []string{
			r.Network, r.Dataset,
			fmt.Sprintf("%.3f", r.AccNormal),
			fmt.Sprintf("%.3f", r.AccSkewed),
			lifeCell(r.LifeTT, r.CensoredTT),
			lifeCell(r.LifeSTT, r.CensoredSTT),
			lifeCell(r.LifeSTAT, r.CensoredSTAT),
			fmt.Sprintf("%.1fx", r.RatioSTT),
			fmt.Sprintf("%.1fx", r.RatioSTAT),
		})
	}
	fmt.Fprintln(w, "Table I — accuracy and lifetime comparison (lifetimes in applications)")
	fmt.Fprint(w, analysis.Table(
		[]string{"network", "dataset", "acc(T)", "acc(ST)", "T+T", "ST+T", "ST+AT", "ST+T/T+T", "ST+AT/T+T"},
		cells))
	fmt.Fprintln(w, "paper reference: lifetime gains 6x (LeNet ST+T), 7x (VGG ST+T), 8x (LeNet ST+AT), 11x (VGG ST+AT)")
}

// table1Metrics flattens Table I into per-network metrics.
func table1Metrics(runs []armRun) map[string]float64 {
	m := make(map[string]float64)
	for _, run := range runs {
		r := table1Row(run)
		k := metricSlug(r.Network)
		m[k+"/acc_normal"] = r.AccNormal
		m[k+"/acc_skewed"] = r.AccSkewed
		m[k+"/life_tt"] = float64(r.LifeTT)
		m[k+"/life_stt"] = float64(r.LifeSTT)
		m[k+"/life_stat"] = float64(r.LifeSTAT)
		m[k+"/ratio_stt"] = r.RatioSTT
		m[k+"/ratio_stat"] = r.RatioSTAT
		m[k+"/censored"] = boolMetric(r.CensoredTT || r.CensoredSTT || r.CensoredSTAT)
	}
	return m
}

func init() {
	registerArms(armExperiment{
		id:       "table1",
		title:    "Table I: accuracy and lifetime (T+T vs ST+T vs ST+AT)",
		fixtures: []string{spec.FixtureLeNet, spec.FixtureVGG},
		arms:     table1Arms,
		render:   renderTable1,
		metrics:  table1Metrics,
	})
}
