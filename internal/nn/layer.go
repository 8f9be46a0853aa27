package nn

import "memlife/internal/tensor"

// Layer is one differentiable stage of a network. Forward consumes and
// produces [B, D] batch tensors; Backward consumes the gradient with
// respect to the forward output and returns the gradient with respect to
// the forward input, accumulating parameter gradients along the way.
// Backward must be called after the training Forward (train true)
// whose activations it needs; an eval Forward keeps no layer state.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutputSize returns the per-sample output width given the
	// per-sample input width, so networks can be shape-checked at
	// construction time.
	OutputSize(inputSize int) int
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (l *ReLU) Name() string { return "relu" }

// Params implements Layer; activations are parameter-free.
func (l *ReLU) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *ReLU) OutputSize(in int) int { return in }

// Forward implements Layer; only a training forward writes the mask
// Backward reads. Samples run over the kernel token pool. Every input
// that is not above zero (-0 and NaN too) leaves its output at +0.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, d := x.Data(), out.Data()
	if train {
		if cap(l.mask) < len(d) {
			l.mask = make([]bool, len(d))
		}
		l.mask = l.mask[:len(d)]
	}
	mask, w := l.mask, x.Dim(1)
	tensor.ParallelRows(x.Dim(0), func(s0, s1 int) {
		for i := s0 * w; i < s1*w; i++ {
			v := xd[i]
			keep := v > 0
			if train {
				mask[i] = keep
			}
			if keep {
				d[i] = v
			}
		}
	})
	return out
}

// Backward implements Layer; samples run over the kernel token pool.
func (l *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dout.Shape()...)
	g, d, w := dout.Data(), dx.Data(), dout.Dim(1)
	tensor.ParallelRows(dout.Dim(0), func(s0, s1 int) {
		for i := s0 * w; i < s1*w; i++ {
			if l.mask[i] {
				d[i] = g[i]
			}
		}
	})
	return dx
}

// Flatten marks the transition from spatial to fully-connected layers.
// Because every layer already exchanges flat [B, D] tensors it is an
// identity at runtime, kept for architectural fidelity with the paper's
// network descriptions.
type Flatten struct{}

// NewFlatten returns a flatten marker layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (l *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *Flatten) OutputSize(in int) int { return in }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (l *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor { return dout }
