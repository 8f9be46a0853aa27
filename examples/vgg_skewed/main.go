// vgg_skewed trains the (width-reduced) VGG-16 with the paper's skewed
// regularizer and prints the per-layer weight distributions — the data
// behind Fig. 9 — together with their mapped-resistance statistics.
//
// Run with: go run ./examples/vgg_skewed [-fast]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memlife/internal/analysis"
	"memlife/internal/crossbar"
	"memlife/internal/experiments"
	"memlife/internal/train"
)

func main() {
	fast := flag.Bool("fast", true, "use the reduced-size fixture")
	flag.Parse()
	if err := run(*fast); err != nil {
		log.Fatal(err)
	}
}

func run(fast bool) error {
	opt := experiments.Options{Fast: fast, Seed: 1, Log: os.Stdout}
	fmt.Println("training VGG-16 twice (L2 and skewed regularizer)...")
	b, err := experiments.VGGBundle(opt)
	if err != nil {
		return err
	}
	fmt.Printf("\nsoftware accuracy: conventional %.3f, skewed %.3f\n\n", b.NormalAcc, b.SkewedAcc)

	fmt.Println("per-layer weight statistics after skewed training:")
	for _, s := range train.NetworkStats(b.Skewed) {
		fmt.Println("  " + s.String())
	}

	// Fig. 9: the third layer's skewed weight histogram.
	third := b.Skewed.WeightLayers()[2]
	fmt.Printf("\nFig. 9 — weight distribution of %s:\n", third.Param.Name)
	hist := analysis.NewHistogram(third.Param.W.Data(), 16)
	fmt.Print(hist.Render(40))

	// Where do these weights land in resistance space? (Fig. 6b)
	p := experiments.DeviceParams()
	wMin, wMax := third.Param.W.MinMax()
	g := p.Grid()
	var res []float64
	for _, w := range third.Param.W.Data() {
		target := crossbar.TargetResistance(w, wMin, wMax, p.RminFresh, p.RmaxFresh)
		res = append(res, g.LevelResistance(g.NearestLevel(target)))
	}
	sum := analysis.Summarize(res)
	fmt.Printf("\nmapped resistances: median %.0f Ohm (range %.0f..%.0f); higher is better for aging\n",
		sum.Median, sum.Min, sum.Max)
	fmt.Printf("fraction above mid-range: %.2f\n",
		1-analysis.NewHistogramRange(res, p.RminFresh, p.RmaxFresh, 16).MassBelow((p.RminFresh+p.RmaxFresh)/2))
	return nil
}
