package nn

import (
	"fmt"

	"memlife/internal/tensor"
)

// Dense is a fully-connected layer computing y = x @ W + b for batch
// input x of shape [B, In]. Its weight matrix is what gets mapped onto a
// memristor crossbar: W[i][j] is the weight from input neuron i to
// output neuron j, matching the paper's g_ij orientation (Fig. 1).
type Dense struct {
	name    string
	In, Out int
	Weight  *Param
	Bias    *Param

	x *tensor.Tensor // forward input cached by a training forward
}

// NewDense constructs a dense layer with He-initialized weights.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: dense dims must be positive, got %dx%d", in, out))
	}
	w := tensor.New(in, out)
	rng.HeInit(w, in)
	return &Dense{
		name: name, In: in, Out: out,
		Weight: newParam(name+".w", KindWeight, w),
		Bias:   newParam(name+".b", KindBias, tensor.New(out)),
	}
}

// Name implements Layer.
func (l *Dense) Name() string { return l.name }

// Params implements Layer.
func (l *Dense) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutputSize implements Layer.
func (l *Dense) OutputSize(in int) int {
	if in != l.In {
		panic(fmt.Sprintf("nn: dense %q expects input size %d, got %d", l.name, l.In, in))
	}
	return l.Out
}

// Forward implements Layer; only a training forward keeps x for
// Backward. Both run over the kernel token pool.
func (l *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: dense %q forward input width %d, want %d", l.name, x.Dim(1), l.In))
	}
	if train {
		l.x = x
	}
	out := tensor.New(x.Dim(0), l.Out)
	tensor.ParallelMatMulInto(out, x, l.Weight.W)
	out.AddRowVector(l.Bias.W)
	return out
}

// Backward implements Layer. dx skips exact-zero gradient entries,
// which leaves every bit as a dense dot product would (see
// Conv2D.Backward).
func (l *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	// dW += xᵀ @ dout, db += column sums of dout, dx = dout @ Wᵀ.
	dW := tensor.New(l.In, l.Out)
	tensor.MatMulATInto(dW, l.x, dout)
	l.Weight.Grad.Axpy(1, dW)
	l.Bias.Grad.Axpy(1, dout.SumRows())

	dx := tensor.New(dout.Dim(0), l.In)
	tensor.ParallelMatMulInto(dx, dout, l.Weight.W.Transpose())
	return dx
}
