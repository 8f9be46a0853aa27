package dataset

import (
	"math"
	"testing"

	"memlife/internal/tensor"
)

func smallCfg() SynthConfig {
	return SynthConfig{Classes: 4, TrainN: 40, TestN: 12, C: 3, H: 8, W: 8, Noise: 0.1, Seed: 11}
}

func TestGenerateShapesAndLabels(t *testing.T) {
	train, test := MustGenerate(smallCfg())
	if train.Len() != 40 || test.Len() != 12 {
		t.Fatalf("split sizes = %d/%d, want 40/12", train.Len(), test.Len())
	}
	if train.SampleSize() != 3*8*8 {
		t.Fatalf("sample size = %d, want 192", train.SampleSize())
	}
	counts := make([]int, 4)
	for _, y := range train.Labels {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for k, c := range counts {
		if c != 10 {
			t.Fatalf("class %d has %d samples, want balanced 10", k, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := MustGenerate(smallCfg())
	b, _ := MustGenerate(smallCfg())
	for i, v := range a.Images.Data() {
		if b.Images.Data()[i] != v {
			t.Fatal("same seed must generate identical data")
		}
	}
	cfg2 := smallCfg()
	cfg2.Seed = 99
	c, _ := MustGenerate(cfg2)
	same := true
	for i, v := range a.Images.Data() {
		if c.Images.Data()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must generate different data")
	}
}

func TestTrainTestSplitsDiffer(t *testing.T) {
	train, test := MustGenerate(smallCfg())
	// The first train sample and first test sample share a class
	// prototype but different noise/jitter draws.
	a := train.Image(0).Data()
	b := test.Image(0).Data()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("train and test must use independent sample draws")
	}
}

// TestClassesAreSeparable verifies a nearest-class-mean classifier beats
// chance comfortably, i.e. the synthetic task is actually learnable.
func TestClassesAreSeparable(t *testing.T) {
	cfg := smallCfg()
	cfg.TrainN, cfg.TestN = 200, 80
	train, test := MustGenerate(cfg)

	means := make([]*tensor.Tensor, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for k := range means {
		means[k] = tensor.New(train.SampleSize())
	}
	for i := 0; i < train.Len(); i++ {
		k := train.Labels[i]
		means[k].Axpy(1, train.Image(i))
		counts[k]++
	}
	for k := range means {
		means[k].Scale(1 / float64(counts[k]))
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		img := test.Image(i)
		best, bestD := -1, math.Inf(1)
		for k := range means {
			d := 0.0
			for j, v := range img.Data() {
				diff := v - means[k].Data()[j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		if best == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.6 {
		t.Fatalf("nearest-mean accuracy %.2f; synthetic classes not separable enough", acc)
	}
}

func TestBatchesCoverAllSamplesOnce(t *testing.T) {
	train, _ := MustGenerate(smallCfg())
	batches := train.Batches(7, tensor.NewRNG(3))
	total := 0
	for _, b := range batches {
		if b.X.Dim(0) != len(b.Y) {
			t.Fatalf("batch X rows %d != labels %d", b.X.Dim(0), len(b.Y))
		}
		total += len(b.Y)
	}
	if total != train.Len() {
		t.Fatalf("batches cover %d samples, want %d", total, train.Len())
	}
	// Last short batch: 40 = 5*7 + 5.
	last := batches[len(batches)-1]
	if len(last.Y) != 5 {
		t.Fatalf("last batch size = %d, want 5", len(last.Y))
	}
}

func TestBatchesSequentialWhenNilRNG(t *testing.T) {
	train, _ := MustGenerate(smallCfg())
	batches := train.Batches(10, nil)
	for i, y := range batches[0].Y {
		if y != train.Labels[i] {
			t.Fatal("nil-RNG batching must preserve order")
		}
	}
}

func TestBatchesInvalidSizePanics(t *testing.T) {
	train, _ := MustGenerate(smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for batch size 0")
		}
	}()
	train.Batches(0, nil)
}

func TestSubset(t *testing.T) {
	train, _ := MustGenerate(smallCfg())
	s := train.Subset(10)
	if s.Len() != 10 {
		t.Fatalf("subset len = %d, want 10", s.Len())
	}
	s.Images.Set(999, 0, 0)
	if train.Images.At(0, 0) == 999 {
		t.Fatal("Subset must copy image storage")
	}
	if train.Subset(10_000).Len() != train.Len() {
		t.Fatal("oversized Subset must clamp to dataset length")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []SynthConfig{
		{Classes: 1, TrainN: 10, TestN: 5, C: 3, H: 8, W: 8},
		{Classes: 4, TrainN: 2, TestN: 5, C: 3, H: 8, W: 8},
		{Classes: 4, TrainN: 10, TestN: 0, C: 3, H: 8, W: 8},
		{Classes: 4, TrainN: 10, TestN: 5, C: 0, H: 8, W: 8},
		{Classes: 4, TrainN: 10, TestN: 5, C: 3, H: 2, W: 8},
		{Classes: 4, TrainN: 10, TestN: 5, C: 3, H: 8, W: 8, Noise: -1},
	}
	for i, cfg := range bad {
		if _, _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}
