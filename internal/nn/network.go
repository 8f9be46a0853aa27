package nn

import (
	"fmt"

	"memlife/internal/tensor"
)

// Network is an ordered stack of layers with a softmax cross-entropy
// head. It owns the forward/backward plumbing used both for software
// training (Section II-A of the paper) and as the gradient oracle for
// online tuning (Section II-C).
type Network struct {
	Name      string
	InputSize int
	Layers    []Layer
}

// NewNetwork builds a network and shape-checks the layer stack against
// the declared input size.
func NewNetwork(name string, inputSize int, layers ...Layer) *Network {
	if inputSize <= 0 {
		panic(fmt.Sprintf("nn: network %q input size must be positive, got %d", name, inputSize))
	}
	size := inputSize
	for _, l := range layers {
		size = l.OutputSize(size) // panics with a specific message on mismatch
	}
	return &Network{Name: name, InputSize: inputSize, Layers: layers}
}

// OutputSize returns the per-sample logit width.
func (n *Network) OutputSize() int {
	size := n.InputSize
	for _, l := range n.Layers {
		size = l.OutputSize(size)
	}
	return size
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// WeightParams returns only the crossbar-mapped weight matrices.
func (n *Network) WeightParams() []*Param {
	var out []*Param
	for _, p := range n.Params() {
		if p.Kind == KindWeight {
			out = append(out, p)
		}
	}
	return out
}

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Clone returns a deep copy of the network: every parameter gets a
// copy of its weights and a zeroed gradient, and no layer carries
// forward state. The copy shares no mutable memory with n, so it can
// be run, tuned and overwritten while n stays untouched.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			layers[i] = &Conv2D{name: t.name, Geom: t.Geom, OutC: t.OutC,
				Weight: t.Weight.clone(), Bias: t.Bias.clone()}
		case *Dense:
			layers[i] = &Dense{name: t.name, In: t.In, Out: t.Out,
				Weight: t.Weight.clone(), Bias: t.Bias.clone()}
		case *MaxPool2D:
			layers[i] = &MaxPool2D{name: t.name, Geom: t.Geom}
		case *ReLU:
			layers[i] = &ReLU{}
		case *Flatten:
			layers[i] = &Flatten{}
		default:
			panic(fmt.Sprintf("nn: cannot clone layer %q of type %T", l.Name(), l))
		}
	}
	return &Network{Name: n.Name, InputSize: n.InputSize, Layers: layers}
}

// Forward runs the batch x through all layers and returns logits.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.ForwardRange(x, 0, len(n.Layers), train)
}

// ForwardRange runs x, the activation at the input of Layers[from],
// through Layers[from:to] only. Layer forwards are deterministic and
// never modify their input, so one activation can be resumed from any
// number of times with bit-identical results.
func (n *Network) ForwardRange(x *tensor.Tensor, from, to int, train bool) *tensor.Tensor {
	out := x
	for _, l := range n.Layers[from:to] {
		out = l.Forward(out, train)
	}
	return out
}

// Backward propagates dlogits through all layers, accumulating parameter
// gradients, and returns the input gradient.
func (n *Network) Backward(dlogits *tensor.Tensor) *tensor.Tensor {
	d := dlogits
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d = n.Layers[i].Backward(d)
	}
	return d
}

// Predict returns the argmax class for every sample in x.
func (n *Network) Predict(x *tensor.Tensor) []int {
	logits := n.Forward(x, false)
	b := logits.Dim(0)
	out := make([]int, b)
	for i := 0; i < b; i++ {
		out[i] = logits.RowSlice(i).ArgMax()
	}
	return out
}

// Accuracy returns the fraction of samples in x classified as y.
func (n *Network) Accuracy(x *tensor.Tensor, y []int) float64 {
	return n.AccuracyFrom(0, x, y)
}

// AccuracyFrom is Accuracy for a batch already forwarded through
// Layers[:k]: act is the activation at the input of Layers[k], and only
// Layers[k:] run.
func (n *Network) AccuracyFrom(k int, act *tensor.Tensor, y []int) float64 {
	logits := n.ForwardRange(act, k, len(n.Layers), false)
	if b := logits.Dim(0); b != len(y) {
		panic(fmt.Sprintf("nn: accuracy label count %d != batch %d", len(y), b))
	}
	correct := 0
	for i, label := range y {
		if logits.RowSlice(i).ArgMax() == label {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// SnapshotParams deep-copies every parameter tensor (weights and
// biases), so a caller that writes the network's weights (a training
// step, say) can restore them afterwards.
func (n *Network) SnapshotParams() [][]float64 {
	var out [][]float64
	for _, p := range n.Params() {
		out = append(out, append([]float64(nil), p.W.Data()...))
	}
	return out
}

// RestoreParams writes a snapshot taken with SnapshotParams back into
// the network. The snapshot must come from a structurally identical
// network.
func (n *Network) RestoreParams(snap [][]float64) {
	params := n.Params()
	if len(snap) != len(params) {
		panic(fmt.Sprintf("nn: snapshot has %d tensors, network has %d", len(snap), len(params)))
	}
	for i, p := range params {
		if len(snap[i]) != p.W.Size() {
			panic(fmt.Sprintf("nn: snapshot tensor %d size %d, want %d", i, len(snap[i]), p.W.Size()))
		}
		copy(p.W.Data(), snap[i])
	}
}

// LayerKind classifies a weight-bearing layer for the conv-vs-FC aging
// analysis of Fig. 11.
type LayerKind int

const (
	// LayerConv marks a convolutional weight matrix.
	LayerConv LayerKind = iota
	// LayerFC marks a fully-connected weight matrix.
	LayerFC
)

// WeightLayer pairs a weight parameter with its host layer's kind and
// the host layer's index in Network.Layers.
type WeightLayer struct {
	Param *Param
	Kind  LayerKind
	Index int
}

// WeightLayers returns the crossbar-mapped weight matrices with their
// layer kinds, in network order.
func (n *Network) WeightLayers() []WeightLayer {
	var out []WeightLayer
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			out = append(out, WeightLayer{Param: t.Weight, Kind: LayerConv, Index: i})
		case *Dense:
			out = append(out, WeightLayer{Param: t.Weight, Kind: LayerFC, Index: i})
		}
	}
	return out
}
