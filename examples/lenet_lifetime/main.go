// lenet_lifetime runs the paper's headline experiment end-to-end on
// LeNet-5: train conventionally and with the skewed regularizer, then
// simulate the deployment life of the crossbars under the three
// scenarios of Table I (T+T, ST+T, ST+AT) and report the lifetimes.
//
// Run with: go run ./examples/lenet_lifetime [-fast]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memlife/internal/experiments"
	"memlife/internal/lifetime"
)

func main() {
	fast := flag.Bool("fast", true, "use the reduced-size fixture (seconds instead of minutes)")
	flag.Parse()
	if err := run(*fast); err != nil {
		log.Fatal(err)
	}
}

func run(fast bool) error {
	opt := experiments.Options{Fast: fast, Seed: 1, Log: os.Stdout}
	fmt.Println("training LeNet-5 twice (L2 and skewed regularizer)...")
	bundle, err := experiments.LeNetBundle(opt)
	if err != nil {
		return err
	}
	fmt.Printf("\nsoftware accuracy: conventional %.3f, skewed %.3f\n", bundle.NormalAcc, bundle.SkewedAcc)

	row, err := experiments.Table1Bundle(bundle, bundle.Spec, opt)
	if err != nil {
		return err
	}
	fmt.Printf("\nlifetimes (applications served before the crossbar fails):\n")
	fmt.Printf("  %-6s %12d\n", lifetime.TT, row.LifeTT)
	fmt.Printf("  %-6s %12d  (%.1fx)\n", lifetime.STT, row.LifeSTT, row.RatioSTT)
	fmt.Printf("  %-6s %12d  (%.1fx)\n", lifetime.STAT, row.LifeSTAT, row.RatioSTAT)
	fmt.Println("\npaper reference (LeNet-5): ST+T ~6x, ST+AT ~8x")
	return nil
}
