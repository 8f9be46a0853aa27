package nn

import (
	"fmt"

	"memlife/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major (C,H,W) rows. The
// kernel is stored as a matrix of shape [InC*KH*KW, OutC] — the unrolled
// form that is mapped onto a crossbar, where each column is one output
// filter and each row one input of the dot-product engine.
type Conv2D struct {
	name string
	Geom tensor.ConvGeom
	OutC int

	Weight *Param
	Bias   *Param

	// Per-sample im2col patch matrices a training forward caches for
	// the backward pass.
	cols []*tensor.Tensor
}

// NewConv2D constructs a convolution layer with He-initialized kernels.
func NewConv2D(name string, geom tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: conv %q: %v", name, err))
	}
	if outC <= 0 {
		panic(fmt.Sprintf("nn: conv %q needs positive output channels, got %d", name, outC))
	}
	patch := geom.InC * geom.KH * geom.KW
	w := tensor.New(patch, outC)
	rng.HeInit(w, patch)
	return &Conv2D{
		name: name, Geom: geom, OutC: outC,
		Weight: newParam(name+".w", KindWeight, w),
		Bias:   newParam(name+".b", KindBias, tensor.New(outC)),
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// InputSize returns the expected per-sample input width.
func (l *Conv2D) InputSize() int { return l.Geom.InC * l.Geom.InH * l.Geom.InW }

// OutputSize implements Layer.
func (l *Conv2D) OutputSize(in int) int {
	if in != l.InputSize() {
		panic(fmt.Sprintf("nn: conv %q expects input size %d, got %d", l.name, l.InputSize(), in))
	}
	return l.OutC * l.Geom.OutH() * l.Geom.OutW()
}

// Forward implements Layer. Each output row holds the channel-major
// (OutC, OutH, OutW) volume of one sample. Only a training forward
// keeps state for Backward; an eval forward writes nothing to the
// layer, so eval forwards may run concurrently. Both run over the
// kernel token pool.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	if x.Dim(1) != l.InputSize() {
		panic(fmt.Sprintf("nn: conv %q forward input width %d, want %d", l.name, x.Dim(1), l.InputSize()))
	}
	outH, outW := l.Geom.OutH(), l.Geom.OutW()
	positions := outH * outW
	patch := l.Geom.InC * l.Geom.KH * l.Geom.KW

	out := tensor.New(b, l.OutC*positions)
	if train {
		if cap(l.cols) < b {
			l.cols = make([]*tensor.Tensor, b)
		}
		l.cols = l.cols[:b]
	}

	// Samples are independent, so chunking them leaves the output
	// bit-identical for every chunk count. Each chunk owns a private
	// position-major scratch buffer; an eval forward also reuses one
	// im2col scratch per chunk instead of keeping a matrix per sample.
	tensor.ParallelRows(b, func(s0, s1 int) {
		pos := tensor.New(positions, l.OutC)
		var cols *tensor.Tensor
		for s := s0; s < s1; s++ {
			if train {
				if l.cols[s] == nil {
					l.cols[s] = tensor.New(positions, patch)
				}
				cols = l.cols[s]
			} else if cols == nil {
				cols = tensor.New(positions, patch)
			}
			tensor.Im2Col(cols, x.RowSlice(s), l.Geom)
			tensor.MatMulInto(pos, cols, l.Weight.W)
			// Transpose position-major [positions, OutC] into the
			// channel-major output row, adding the per-channel bias.
			row := out.RowSlice(s).Data()
			pd := pos.Data()
			for p := 0; p < positions; p++ {
				for c := 0; c < l.OutC; c++ {
					row[c*positions+p] = pd[p*l.OutC+c] + l.Bias.W.Data()[c]
				}
			}
		}
	})
	return out
}

// Backward implements Layer. It runs over the kernel token pool in
// two passes: the samples in parallel, each writing its own dx row,
// then the output channels in parallel, each adding its per-sample
// weight and bias sums into the gradients in sample order. Every sum
// runs in the order of a serial pass and starts at +0, and a product
// with an exact-zero gradient entry adds ±0 to it, so the kernels may
// skip those entries without changing a bit (for finite operands).
func (l *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	b := dout.Dim(0)
	outH, outW := l.Geom.OutH(), l.Geom.OutW()
	positions := outH * outW
	patch := l.Geom.InC * l.Geom.KH * l.Geom.KW

	dx := tensor.New(b, l.InputSize())
	wT := l.Weight.W.Transpose()
	tensor.ParallelRows(b, func(s0, s1 int) {
		dpos := tensor.New(positions, l.OutC)
		dcols := tensor.New(positions, patch)
		for s := s0; s < s1; s++ {
			// Channel-major gradient row -> position-major matrix.
			row := dout.RowSlice(s).Data()
			dp := dpos.Data()
			for c := 0; c < l.OutC; c++ {
				for p := 0; p < positions; p++ {
					dp[p*l.OutC+c] = row[c*positions+p]
				}
			}
			// dcols = dpos @ Wᵀ, scattered back to the input image.
			tensor.MatMulInto(dcols, dpos, wT)
			tensor.Col2Im(dx.RowSlice(s), dcols, l.Geom)
		}
	})

	// Row s of dout, read as [OutC, positions], is dposᵀ, so channels
	// c0..c1 need no transpose: dWᵀ[c0:c1, :] = dposᵀ[c0:c1, :] @ cols_s.
	gw, gb := l.Weight.Grad.Data(), l.Bias.Grad.Data()
	tensor.ParallelRows(l.OutC, func(c0, c1 int) {
		dWT := tensor.New(c1-c0, patch)
		for s := 0; s < b; s++ {
			d := dout.RowSlice(s).Data()[c0*positions : c1*positions]
			tensor.MatMulInto(dWT, tensor.FromSlice(d, c1-c0, positions), l.cols[s])
			for c := c0; c < c1; c++ {
				gsum := 0.0
				for _, v := range d[(c-c0)*positions : (c-c0+1)*positions] {
					gsum += v
				}
				gb[c] += gsum
				for i, v := range dWT.RowSlice(c - c0).Data() {
					gw[i*l.OutC+c] += v
				}
			}
		}
	})
	return dx
}
