// Quickstart: train a small network in software, deploy it onto
// simulated memristor crossbars, classify through the analog hardware,
// and watch programming stress age the array.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/train"
	"memlife/internal/tuning"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A synthetic 4-class image dataset (stand-in for CIFAR).
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 320, TestN: 80, C: 3, H: 8, W: 8, Noise: 0.2, Seed: 42}
	trainDS, testDS, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}

	// 2. Software training (Section II-A of the paper).
	net, err := nn.NewMLP("quickstart", []int{trainDS.SampleSize(), 32, 4}, tensor.NewRNG(7))
	if err != nil {
		return err
	}
	res, err := train.Train(net, trainDS, testDS, train.Config{
		Epochs: 8, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1, Log: os.Stdout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nsoftware test accuracy: %.3f\n", res.FinalTestAcc)

	// 3. Deploy onto 32-level memristor crossbars (Section II-B):
	// one crossbar per weight matrix, weights mapped to conductances
	// via eq. (4) and quantized to the device level grid.
	mn, err := crossbar.NewMappedNetwork(net, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		return err
	}
	if _, err := mapping.Map(mn, mapping.Config{Policy: mapping.Fresh}, nil, nil); err != nil {
		return err
	}
	batch := testDS.Batches(testDS.Len(), nil)[0]
	acc, err := mn.Accuracy(batch.X, batch.Y)
	if err != nil {
		return err
	}
	fmt.Printf("hardware accuracy after mapping: %.3f\n", acc)
	fmt.Printf("programming cost: %d pulses, %.1f stress units\n", mn.TotalPulses(), mn.TotalStress())

	// 4. Read-disturb drift degrades the analog state; online tuning
	// (Section II-C, eq. (5)) repairs it with sign-based pulses — and
	// every pulse ages the array a little more.
	mn.Drift(0.08, tensor.NewRNG(3))
	if acc, err = mn.Accuracy(batch.X, batch.Y); err != nil {
		return err
	}
	fmt.Printf("accuracy after drift: %.3f\n", acc)

	trainBatch := trainDS.Batches(96, nil)[0]
	tc := lifetime.DefaultConfig().Tuning
	tc.MaxIters, tc.TargetAcc, tc.Seed = 50, res.FinalTestAcc-0.05, 2
	tuneRes, err := tuning.Tune(mn, trainDS, trainBatch.X, trainBatch.Y, tc)
	if err != nil {
		return err
	}
	fmt.Printf("tuning: converged=%v in %d iterations (%d pulses)\n",
		tuneRes.Converged, tuneRes.Iterations, tuneRes.Pulses)
	if acc, err = mn.Accuracy(batch.X, batch.Y); err != nil {
		return err
	}
	fmt.Printf("accuracy after tuning: %.3f\n", acc)

	// 5. Inspect the aging state the pulses left behind.
	for _, l := range mn.Layers {
		min, mean := l.Crossbar.UsableLevelStats()
		fmt.Printf("layer %-12s usable levels: min=%d mean=%.1f of %d\n",
			l.Name, min, mean, l.Crossbar.Params().Levels)
	}
	return nil
}
