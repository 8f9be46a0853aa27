package nn

import (
	"math"
	"testing"

	"memlife/internal/tensor"
)

// numericalGrad estimates d(loss)/d(theta[i]) by central differences,
// where loss is the softmax cross-entropy of net on (x, y).
func numericalGrad(net *Network, x *tensor.Tensor, y []int, theta *tensor.Tensor, i int) float64 {
	const eps = 1e-5
	orig := theta.Data()[i]
	theta.Data()[i] = orig + eps
	lp, _ := SoftmaxCrossEntropy(net.Forward(x, false), y)
	theta.Data()[i] = orig - eps
	lm, _ := SoftmaxCrossEntropy(net.Forward(x, false), y)
	theta.Data()[i] = orig
	return (lp - lm) / (2 * eps)
}

// checkGrads verifies every parameter gradient of net against finite
// differences on batch (x, y). Uses relative error with an absolute
// floor to tolerate tiny gradients.
func checkGrads(t *testing.T, net *Network, x *tensor.Tensor, y []int) {
	t.Helper()
	net.ZeroGrads()
	logits := net.Forward(x, true)
	_, dlogits := SoftmaxCrossEntropy(logits, y)
	net.Backward(dlogits)

	for _, p := range net.Params() {
		n := p.W.Size()
		stride := 1
		if n > 50 {
			stride = n / 50 // sample ~50 coordinates of big tensors
		}
		for i := 0; i < n; i += stride {
			got := p.Grad.Data()[i]
			want := numericalGrad(net, x, y, p.W, i)
			denom := math.Max(1e-6, math.Max(math.Abs(got), math.Abs(want)))
			if math.Abs(got-want)/denom > 1e-3 {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, i, got, want)
			}
		}
	}
}

func TestGradCheckDenseReLU(t *testing.T) {
	rng := tensor.NewRNG(11)
	net, err := NewMLP("m", []int{6, 5, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 6)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, net, x, []int{0, 1, 2, 1})
}

func TestGradCheckConvPool(t *testing.T) {
	rng := tensor.NewRNG(13)
	convGeom := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	poolGeom := tensor.ConvGeom{InC: 3, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	net := NewNetwork("convnet", 2*6*6,
		NewConv2D("c1", convGeom, 3, rng),
		NewReLU(),
		NewMaxPool2D("p1", poolGeom),
		NewFlatten(),
		NewDense("fc", 3*3*3, 4, rng),
	)
	x := tensor.New(2, 2*6*6)
	rng.FillNormal(x, 0, 1)
	checkGrads(t, net, x, []int{1, 3})
}

func TestGradCheckInputGradient(t *testing.T) {
	rng := tensor.NewRNG(15)
	net, err := NewMLP("m", []int{5, 4, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 5)
	rng.FillNormal(x, 0, 1)
	y := []int{0, 2}

	net.ZeroGrads()
	_, dlogits := SoftmaxCrossEntropy(net.Forward(x, true), y)
	dx := net.Backward(dlogits)

	const eps = 1e-5
	for i := 0; i < x.Size(); i++ {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(net.Forward(x, false), y)
		x.Data()[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(net.Forward(x, false), y)
		x.Data()[i] = orig
		want := (lp - lm) / (2 * eps)
		got := dx.Data()[i]
		denom := math.Max(1e-6, math.Max(math.Abs(got), math.Abs(want)))
		if math.Abs(got-want)/denom > 1e-3 {
			t.Fatalf("input grad [%d]: analytic %g vs numeric %g", i, got, want)
		}
	}
}
