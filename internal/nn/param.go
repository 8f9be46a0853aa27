// Package nn implements the neural-network substrate the paper trains
// and maps onto memristor crossbars: dense and convolutional layers,
// pooling, activations, softmax cross-entropy, and builders for the two
// evaluated topologies (LeNet-5 and VGG-16).
//
// All layers exchange rank-2 batch tensors of shape [B, D]; spatial
// layers interpret each row as a channel-major (C,H,W) volume. Backward
// passes implement exact analytic gradients (verified against finite
// differences in the tests), which the online-tuning simulator also uses
// as its gradient-sign oracle (paper eq. (5)).
package nn

import "memlife/internal/tensor"

// ParamKind distinguishes matrix weights (which are mapped onto
// crossbars and aged) from biases (implemented in peripheral circuitry).
type ParamKind int

const (
	// KindWeight marks a weight matrix mapped onto a crossbar.
	KindWeight ParamKind = iota
	// KindBias marks a bias vector kept in digital periphery.
	KindBias
)

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	Kind ParamKind
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// newParam allocates a parameter and its zeroed gradient.
func newParam(name string, kind ParamKind, w *tensor.Tensor) *Param {
	return &Param{Name: name, Kind: kind, W: w, Grad: tensor.New(w.Shape()...)}
}

// clone copies the parameter's weights under a fresh zeroed gradient.
func (p *Param) clone() *Param { return newParam(p.Name, p.Kind, p.W.Clone()) }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }
