package nn

import (
	"sync"
	"testing"

	"memlife/internal/tensor"
)

// evalNet returns a small LeNet-5 with layer parallelism on, plus an
// input batch.
func evalNet(t *testing.T) (*Network, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(5)
	net, err := NewLeNet5(LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	net.SetForwardWorkers(2)
	x := tensor.New(6, net.InputSize)
	rng.FillNormal(x, 0, 1)
	return net, x
}

// TestEvalForwardKeepsNoLayerState: an eval forward (train false) on a
// fresh clone leaves every backward cache empty — no im2col matrices,
// dense input, ReLU mask or max-pool argmax stays behind.
func TestEvalForwardKeepsNoLayerState(t *testing.T) {
	net, x := evalNet(t)
	c := net.Clone()
	c.Forward(x, false)
	for i, l := range c.Layers {
		switch cl := l.(type) {
		case *Conv2D:
			if cl.cols != nil {
				t.Fatalf("layer %d: conv %s kept %d im2col matrices", i, cl.name, len(cl.cols))
			}
		case *Dense:
			if cl.x != nil {
				t.Fatalf("layer %d: dense %s kept its input", i, cl.name)
			}
		case *ReLU:
			if cl.mask != nil {
				t.Fatalf("layer %d: relu kept a mask", i)
			}
		case *MaxPool2D:
			if cl.argmax != nil || cl.inSize != 0 {
				t.Fatalf("layer %d: maxpool %s kept argmax/inSize", i, cl.name)
			}
		}
	}
}

// TestConcurrentEvalForwardsMatchSerial: eval forwards write nothing to
// the layers, so goroutines may share one network; each must get the
// serial logits bit for bit.
func TestConcurrentEvalForwardsMatchSerial(t *testing.T) {
	net, x := evalNet(t)
	want := net.Forward(x, false).Data()
	const goroutines = 4
	got := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got[g] = net.Forward(x, false).Data()
			}
		}(g)
	}
	wg.Wait()
	for g, logits := range got {
		for i := range want {
			if logits[i] != want[i] {
				t.Fatalf("goroutine %d logit %d: %v, serial %v", g, i, logits[i], want[i])
			}
		}
	}
}
