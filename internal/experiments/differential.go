package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/crossbar"
	"memlife/internal/nn"
)

// DifferentialRow compares one mapping scheme on one trained network.
type DifferentialRow struct {
	Network string
	Weights string // "conventional" or "skewed"
	Scheme  string // "single (eq. 4)" or "differential pair"
	// Devices is the number of memristors used per weight matrix cell.
	Devices int
	// MeanRelConductance is the aging-relevant current statistic.
	MeanRelConductance float64
	// MapStress is the total normalized stress of the initial mapping.
	MapStress float64
}

// Differential is an extension experiment beyond the paper: it compares
// the paper's single-device range mapping (eq. (4)) against the
// common differential-pair scheme, for both conventionally and
// skew-trained LeNet weights. Differential pairs buy low currents for
// quasi-normal weights with 2x devices and subtracting read-out; the
// paper's skewed training reaches a similar operating point with no
// extra hardware.
func Differential(opt Options) ([]DifferentialRow, error) {
	b, err := LeNetBundle(opt)
	if err != nil {
		return nil, err
	}
	p := DeviceParams()
	m := AgingModel()
	var rows []DifferentialRow
	for _, variant := range []struct {
		name string
		net  *nn.Network
	}{{"conventional", b.Normal}, {"skewed", b.Skewed}} {
		for _, wl := range variant.net.WeightLayers()[:1] { // fc-scale stats from the first conv layer
			w := wl.Param.W

			single, err := crossbar.New(w.Dim(0), w.Dim(1), p, m, TempK)
			if err != nil {
				return nil, err
			}
			single.MapWeights(w, p.RminFresh, p.RmaxFresh)
			gMin, gMax := p.GminFresh(), p.GmaxFresh()
			rel, n := 0.0, 0
			for i := 0; i < single.Rows; i++ {
				for j := 0; j < single.Cols; j++ {
					rel += (single.Device(i, j).Conductance() - gMin) / (gMax - gMin)
					n++
				}
			}
			rows = append(rows, DifferentialRow{
				Network: b.Name, Weights: variant.name, Scheme: "single (eq. 4)",
				Devices:            1,
				MeanRelConductance: rel / float64(n),
				MapStress:          single.TotalStress(),
			})

			diff, err := crossbar.NewDifferential(w.Dim(0), w.Dim(1), p, m, TempK)
			if err != nil {
				return nil, err
			}
			diff.MapWeights(w)
			rows = append(rows, DifferentialRow{
				Network: b.Name, Weights: variant.name, Scheme: "differential pair",
				Devices:            2,
				MeanRelConductance: diff.MeanRelConductance(),
				MapStress:          diff.TotalStress(),
			})
		}
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "differential",
		Title: "Extension: single-device (eq. 4) vs differential-pair mapping",
		Run: func(w io.Writer, opt Options) error {
			rows, err := Differential(opt)
			if err != nil {
				return err
			}
			var cells [][]string
			for _, r := range rows {
				cells = append(cells, []string{
					r.Network, r.Weights, r.Scheme,
					fmt.Sprintf("%d", r.Devices),
					fmt.Sprintf("%.3f", r.MeanRelConductance),
					fmt.Sprintf("%.1f", r.MapStress),
				})
			}
			fmt.Fprintln(w, "Extension — mapping-scheme comparison (conv1 of LeNet-5)")
			fmt.Fprint(w, analysis.Table(
				[]string{"network", "weights", "scheme", "devices/weight", "mean rel g", "map stress"}, cells))
			fmt.Fprintln(w, "reading: differential pairs reach low currents with 2x hardware; skewed training reaches them with 1x")
			return nil
		},
	})
}
