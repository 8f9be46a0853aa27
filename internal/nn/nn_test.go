package nn

import (
	"math"
	"testing"

	"memlife/internal/tensor"
)

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	out := l.Forward(x, true)
	want := []float64{0, 0, 2, 0}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("relu forward = %v, want %v", out.Data(), want)
		}
	}
	dout := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	dx := l.Backward(dout)
	wantG := []float64{0, 0, 1, 0}
	for i, v := range wantG {
		if dx.Data()[i] != v {
			t.Fatalf("relu backward = %v, want %v", dx.Data(), wantG)
		}
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewDense("fc", 2, 2, rng)
	l.Weight.W.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	l.Bias.W.CopyFrom(tensor.FromSlice([]float64{10, 20}, 2))
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := l.Forward(x, false)
	// [1,1] @ [[1,2],[3,4]] + [10,20] = [14, 26]
	if out.Data()[0] != 14 || out.Data()[1] != 26 {
		t.Fatalf("dense forward = %v, want [14 26]", out.Data())
	}
}

func TestDenseBackwardAccumulatesGrads(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewDense("fc", 2, 1, rng)
	l.Weight.W.CopyFrom(tensor.FromSlice([]float64{1, 1}, 2, 1))
	x := tensor.FromSlice([]float64{2, 3}, 1, 2)
	l.Forward(x, true)
	dout := tensor.FromSlice([]float64{1}, 1, 1)
	l.Backward(dout)
	l.Backward(dout) // gradients accumulate across calls
	if l.Weight.Grad.Data()[0] != 4 || l.Weight.Grad.Data()[1] != 6 {
		t.Fatalf("accumulated dW = %v, want [4 6]", l.Weight.Grad.Data())
	}
	if l.Bias.Grad.Data()[0] != 2 {
		t.Fatalf("accumulated db = %v, want [2]", l.Bias.Grad.Data())
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	l := NewMaxPool2D("pool", g)
	x := tensor.FromSlice([]float64{1, 5, 3, 2}, 1, 4)
	out := l.Forward(x, true)
	if out.Dim(1) != 1 || out.Data()[0] != 5 {
		t.Fatalf("maxpool forward = %v, want [5]", out.Data())
	}
	dx := l.Backward(tensor.FromSlice([]float64{7}, 1, 1))
	want := []float64{0, 7, 0, 0}
	for i, v := range want {
		if dx.Data()[i] != v {
			t.Fatalf("maxpool backward = %v, want %v", dx.Data(), want)
		}
	}
}

func TestConvForwardMatchesDirect(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	l := NewConv2D("c", g, 3, rng)
	x := tensor.New(2, g.InC*g.InH*g.InW)
	rng.FillNormal(x, 0, 1)
	out := l.Forward(x, false)

	for s := 0; s < 2; s++ {
		img := x.RowSlice(s)
		for oc := 0; oc < 3; oc++ {
			for oy := 0; oy < 4; oy++ {
				for ox := 0; ox < 4; ox++ {
					sum := l.Bias.W.Data()[oc]
					for c := 0; c < g.InC; c++ {
						for ky := 0; ky < 3; ky++ {
							for kx := 0; kx < 3; kx++ {
								iy, ix := oy-1+ky, ox-1+kx
								if iy < 0 || iy >= 4 || ix < 0 || ix >= 4 {
									continue
								}
								wIdx := (c*3+ky)*3 + kx
								sum += img.Data()[c*16+iy*4+ix] * l.Weight.W.At(wIdx, oc)
							}
						}
					}
					got := out.At(s, oc*16+oy*4+ox)
					if math.Abs(got-sum) > 1e-9 {
						t.Fatalf("conv forward mismatch at s=%d oc=%d (%d,%d): %g vs %g", s, oc, oy, ox, got, sum)
					}
				}
			}
		}
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all-zero logits -> uniform distribution
	loss, d := SoftmaxCrossEntropy(logits, []int{0, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("uniform CE loss = %g, want ln4 = %g", loss, want)
	}
	// Gradient row 0: (1/4 - 1)/2 at label, 1/4/2 elsewhere.
	if math.Abs(d.At(0, 0)-(0.25-1)/2) > 1e-12 || math.Abs(d.At(0, 1)-0.125) > 1e-12 {
		t.Fatalf("CE gradient = %v", d.Data())
	}
	// Gradient rows must sum to zero.
	for i := 0; i < 2; i++ {
		if math.Abs(d.RowSlice(i).Sum()) > 1e-12 {
			t.Fatal("softmax CE gradient rows must sum to 0")
		}
	}
}

func TestSoftmaxCrossEntropyExtremeLogitsFinite(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, -1000}, 1, 2)
	loss, d := SoftmaxCrossEntropy(logits, []int{1})
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Fatalf("loss must stay finite on extreme logits, got %g", loss)
	}
	for _, v := range d.Data() {
		if math.IsNaN(v) {
			t.Fatal("gradient must stay finite on extreme logits")
		}
	}
}

func TestNetworkShapeCheckPanicsOnMismatch(t *testing.T) {
	rng := tensor.NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	NewNetwork("bad", 10,
		NewDense("fc1", 10, 5, rng),
		NewDense("fc2", 6, 2, rng), // 5 != 6
	)
}

func TestNetworkPredictAndAccuracy(t *testing.T) {
	rng := tensor.NewRNG(1)
	net, err := NewMLP("m", []int{2, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Identity-ish weights: class = argmax of input.
	p := net.Params()[0]
	p.W.CopyFrom(tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2))
	x := tensor.FromSlice([]float64{3, 1, 0, 5}, 2, 2)
	pred := net.Predict(x)
	if pred[0] != 0 || pred[1] != 1 {
		t.Fatalf("predict = %v, want [0 1]", pred)
	}
	if acc := net.Accuracy(x, []int{0, 0}); acc != 0.5 {
		t.Fatalf("accuracy = %g, want 0.5", acc)
	}
}

func TestWeightLayersKinds(t *testing.T) {
	rng := tensor.NewRNG(1)
	net, err := NewLeNet5(LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl := net.WeightLayers()
	if len(wl) != 5 {
		t.Fatalf("LeNet-5 has %d weight layers, want 5 (2 conv + 3 fc)", len(wl))
	}
	wantKinds := []LayerKind{LayerConv, LayerConv, LayerFC, LayerFC, LayerFC}
	wantIndex := []int{0, 3, 7, 9, 11}
	for i, w := range wl {
		if w.Kind != wantKinds[i] {
			t.Fatalf("weight layer %d kind = %v, want %v", i, w.Kind, wantKinds[i])
		}
		if w.Index != wantIndex[i] || net.Layers[w.Index].Params()[0] != w.Param {
			t.Fatalf("weight layer %d index = %d, want %d owning its param", i, w.Index, wantIndex[i])
		}
	}
}

func TestLeNetForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	net, err := NewLeNet5(LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3*16*16)
	rng.FillNormal(x, 0, 1)
	out := net.Forward(x, false)
	if out.Dim(0) != 4 || out.Dim(1) != 10 {
		t.Fatalf("LeNet output shape = %v, want [4 10]", out.Shape())
	}
	if net.OutputSize() != 10 {
		t.Fatalf("OutputSize = %d, want 10", net.OutputSize())
	}
}

func TestVGG16StructureAndShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	net, err := NewVGG16(VGGConfig{InC: 3, H: 32, W: 32, Classes: 100, WidthMult: 0.0625, FCWidth: 32}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl := net.WeightLayers()
	if len(wl) != 16 {
		t.Fatalf("VGG-16 has %d weight layers, want 16 (13 conv + 3 fc)", len(wl))
	}
	convs, fcs := 0, 0
	for _, w := range wl {
		if w.Kind == LayerConv {
			convs++
		} else {
			fcs++
		}
	}
	if convs != 13 || fcs != 3 {
		t.Fatalf("VGG-16 layer mix = %d conv / %d fc, want 13/3", convs, fcs)
	}
	x := tensor.New(2, 3*32*32)
	rng.FillNormal(x, 0, 1)
	out := net.Forward(x, false)
	if out.Dim(1) != 100 {
		t.Fatalf("VGG output width = %d, want 100", out.Dim(1))
	}
}

func TestBuilderConfigValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewLeNet5(LeNetConfig{InC: 3, H: 15, W: 16, Classes: 10}, rng); err == nil {
		t.Fatal("LeNet must reject non-divisible-by-4 sizes")
	}
	if _, err := NewLeNet5(LeNetConfig{InC: 3, H: 16, W: 16, Classes: 1}, rng); err == nil {
		t.Fatal("LeNet must reject < 2 classes")
	}
	if _, err := NewVGG16(VGGConfig{InC: 3, H: 16, W: 16, Classes: 10, WidthMult: 1, FCWidth: 16}, rng); err == nil {
		t.Fatal("VGG must reject sizes not divisible by 32")
	}
	if _, err := NewVGG16(VGGConfig{InC: 3, H: 32, W: 32, Classes: 10, WidthMult: 0, FCWidth: 16}, rng); err == nil {
		t.Fatal("VGG must reject zero width multiplier")
	}
	if _, err := NewMLP("m", []int{5}, rng); err == nil {
		t.Fatal("MLP must reject single-width spec")
	}
}
