package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/lifetime"
	"memlife/internal/nn"
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

// Table1Bundle runs the three scenarios of Table I for one bundle with
// the standard experiment budget: the bundle's base spec, transformed
// only in its scenario field per run.
func Table1Bundle(b *Bundle, opt Options) (Table1Row, error) {
	target, err := specTarget(b, b.Spec)
	if err != nil {
		return Table1Row{}, err
	}
	return Table1BundleWithConfig(b, opt, b.Spec.LifetimeConfig(target))
}

// Table1BundleWithConfig runs the three scenarios of Table I for one
// bundle under an explicit lifetime budget (used by the benches, which
// need shorter simulations).
func Table1BundleWithConfig(b *Bundle, opt Options, cfg lifetime.Config) (Table1Row, error) {
	row := Table1Row{
		Network: b.Name, Dataset: b.DatasetName,
		AccNormal: b.NormalAcc, AccSkewed: b.SkewedAcc,
	}

	type scenarioRun struct {
		sc  lifetime.Scenario
		net *nn.Network
	}
	runs := []scenarioRun{
		{lifetime.TT, b.Normal},
		{lifetime.STT, b.Skewed},
		{lifetime.STAT, b.Skewed},
	}
	for _, r := range runs {
		res, err := lifetime.RunCtx(opt.Context(), r.net, b.TrainDS, r.sc, b.Spec.Device, b.Spec.Aging, b.Spec.TempK, cfg)
		if err != nil {
			return row, fmt.Errorf("experiments: table1 %s %s: %w", b.Name, r.sc, err)
		}
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "table1: %s %s lifetime=%d apps failed=%v cycles=%d\n",
				b.Name, r.sc, res.Lifetime, res.Failed, len(res.Records))
		}
		switch r.sc {
		case lifetime.TT:
			row.LifeTT, row.CensoredTT = res.Lifetime, !res.Failed
		case lifetime.STT:
			row.LifeSTT, row.CensoredSTT = res.Lifetime, !res.Failed
		case lifetime.STAT:
			row.LifeSTAT, row.CensoredSTAT = res.Lifetime, !res.Failed
		}
	}
	if row.LifeTT > 0 {
		row.RatioSTT = float64(row.LifeSTT) / float64(row.LifeTT)
		row.RatioSTAT = float64(row.LifeSTAT) / float64(row.LifeTT)
	}
	return row, nil
}

// Table1 reproduces Table I across both test cases.
func Table1(opt Options) ([]Table1Row, error) {
	var rows []Table1Row
	for _, mk := range []func(Options) (*Bundle, error){LeNetBundle, VGGBundle} {
		b, err := mk(opt)
		if err != nil {
			return nil, err
		}
		row, err := Table1Bundle(b, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func renderTable1(w io.Writer, rows []Table1Row) {
	var cells [][]string
	mark := func(v int64, censored bool) string {
		if censored {
			return fmt.Sprintf(">=%d", v)
		}
		return fmt.Sprintf("%d", v)
	}
	for _, r := range rows {
		cells = append(cells, []string{
			r.Network, r.Dataset,
			fmt.Sprintf("%.3f", r.AccNormal),
			fmt.Sprintf("%.3f", r.AccSkewed),
			mark(r.LifeTT, r.CensoredTT),
			mark(r.LifeSTT, r.CensoredSTT),
			mark(r.LifeSTAT, r.CensoredSTAT),
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

func init() {
	register(Experiment{
		ID:      "table1",
		Title:   "Table I: accuracy and lifetime (T+T vs ST+T vs ST+AT)",
		Metrics: table1Metrics,
		Run: func(w io.Writer, opt Options) error {
			rows, err := Table1(opt)
			if err != nil {
				return err
			}
			renderTable1(w, rows)
			return nil
		},
	})
}
