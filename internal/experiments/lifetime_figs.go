package experiments

import (
	"fmt"
	"io"

	"memlife/internal/analysis"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// fig10Arms are the two scenarios whose divergence Fig. 10 shows: the
// tuning iterations per cycle against cumulative applications, for the
// baseline and the full framework.
var fig10Arms = []arm{scenarioArm(lifetime.TT), scenarioArm(lifetime.STAT)}

func renderFig10(w io.Writer, runs []armRun) {
	r := runs[0]
	fmt.Fprintf(w, "Fig. 10 — %s (x = cumulative applications, y = tuning iterations)\n", r.b.Name)
	for i, a := range fig10Arms {
		series := analysis.Series{Name: a.label}
		for _, rec := range r.res[i].Records {
			series.AddPoint(float64(rec.Apps), float64(rec.TuneIters))
		}
		fmt.Fprint(w, series.Render())
	}
	fmt.Fprintf(w, "lifetimes: T+T=%d apps, ST+AT=%d apps\n", r.res[0].Lifetime, r.res[1].Lifetime)
}

// renderFig11 draws the layer-kind aging curves of Fig. 11: the mean
// aged upper resistance bound of convolutional vs fully-connected
// layers over the application stream.
func renderFig11(w io.Writer, runs []armRun) {
	conv := analysis.Series{Name: "conv layers"}
	fc := analysis.Series{Name: "fully-connected layers"}
	for _, rec := range runs[0].res[0].Records {
		conv.AddPoint(float64(rec.Apps), rec.ConvUpper)
		fc.AddPoint(float64(rec.Apps), rec.FCUpper)
	}
	fmt.Fprintf(w, "Fig. 11 — %s mean aged upper resistance bound by layer kind\n", runs[0].b.Name)
	fmt.Fprint(w, conv.Render())
	fmt.Fprint(w, fc.Render())
}

func init() {
	for _, f := range []struct{ id, title, fixture string }{
		{"fig10", "Fig. 10: online-tuning iterations vs applications (T+T vs ST+AT)", spec.FixtureLeNet},
		{"fig10vgg", "Fig. 10 (VGG-16 case): online-tuning iterations vs applications", spec.FixtureVGG},
	} {
		registerArms(armExperiment{
			id: f.id, title: f.title, fixtures: []string{f.fixture},
			arms: fig10Arms, render: renderFig10,
		})
	}
	// Fig. 11 runs the LeNet-5 case under T+T: aging is fastest there,
	// making the asymmetry clearest.
	registerArms(armExperiment{
		id:       "fig11",
		title:    "Fig. 11: aging of conv vs fully-connected layers",
		fixtures: []string{spec.FixtureLeNet},
		arms:     []arm{scenarioArm(lifetime.TT)},
		render:   renderFig11,
	})
}
