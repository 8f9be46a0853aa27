package nn

import (
	"fmt"
	"math"

	"memlife/internal/tensor"
)

// MaxPool2D applies channel-wise max pooling over (C,H,W) rows.
type MaxPool2D struct {
	name string
	Geom tensor.ConvGeom // KH/KW are the window, InC channels pooled independently

	// Written by a training forward for Backward: the flat input index
	// chosen for each output element, and the input width.
	argmax []int
	inSize int
}

// NewMaxPool2D constructs a max-pooling layer. geom.InC is the channel
// count; the window is geom.KH x geom.KW with the given strides.
func NewMaxPool2D(name string, geom tensor.ConvGeom) *MaxPool2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: maxpool %q: %v", name, err))
	}
	return &MaxPool2D{name: name, Geom: geom}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// InputSize returns the expected per-sample input width.
func (l *MaxPool2D) InputSize() int { return l.Geom.InC * l.Geom.InH * l.Geom.InW }

// OutputSize implements Layer.
func (l *MaxPool2D) OutputSize(in int) int {
	if in != l.InputSize() {
		panic(fmt.Sprintf("nn: maxpool %q expects input size %d, got %d", l.name, l.InputSize(), in))
	}
	return l.Geom.InC * l.Geom.OutH() * l.Geom.OutW()
}

// Forward implements Layer; only a training forward writes the
// argmax Backward reads. Samples run over the kernel token pool.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	g := l.Geom
	outH, outW := g.OutH(), g.OutW()
	outPerSample := g.InC * outH * outW

	out := tensor.New(b, outPerSample)
	if train {
		l.inSize = x.Dim(1)
		if cap(l.argmax) < b*outPerSample {
			l.argmax = make([]int, b*outPerSample)
		}
		l.argmax = l.argmax[:b*outPerSample]
	}

	tensor.ParallelRows(b, func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			var argmax []int
			if train {
				argmax = l.argmax[s*outPerSample : (s+1)*outPerSample]
			}
			l.poolSample(x.RowSlice(s).Data(), out.RowSlice(s).Data(), argmax)
		}
	})
	return out
}

// poolSample pools one sample from in into o and, unless argmax is
// nil, records there the input index each output took.
func (l *MaxPool2D) poolSample(in, o []float64, argmax []int) {
	g := l.Geom
	outH, outW := g.OutH(), g.OutW()
	oi := 0
	for c := 0; c < g.InC; c++ {
		cOff := c * g.InH * g.InW
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= g.InW {
							continue
						}
						// Only a strictly greater value wins, so the
						// first maximum stays and NaN never wins; the
						// select is a mask, not a branch.
						idx := cOff + iy*g.InW + ix
						m := ones(in[idx] > best)
						best = math.Float64frombits(math.Float64bits(best)&^m | math.Float64bits(in[idx])&m)
						bestIdx ^= (bestIdx ^ idx) & int(m)
					}
				}
				o[oi] = best
				if argmax != nil {
					argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
}

// Backward implements Layer; samples run over the kernel token pool.
func (l *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	b := dout.Dim(0)
	outPerSample := dout.Dim(1)
	dx := tensor.New(b, l.inSize)
	tensor.ParallelRows(b, func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			do := dout.RowSlice(s).Data()
			di := dx.RowSlice(s).Data()
			for oi, g := range do {
				di[l.argmax[s*outPerSample+oi]] += g
			}
		}
	})
	return dx
}
