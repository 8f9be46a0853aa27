package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling
// window applied to an input of shape [C, H, W].
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial size
	KH, KW        int // kernel size
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports an error when the geometry is degenerate.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv input dims must be positive, got C=%d H=%d W=%d", g.InC, g.InH, g.InW)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv kernel dims must be positive, got %dx%d", g.KH, g.KW)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv strides must be positive, got %dx%d", g.StrideH, g.StrideW)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv padding must be non-negative, got %dx%d", g.PadH, g.PadW)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv output is empty for geometry %+v", g)
	}
	return nil
}

// PaddedSize returns the length of the padded-image scratch Im2Col and
// Col2Im take: InC planes of (InH+2*PadH) x (InW+2*PadW).
func (g ConvGeom) PaddedSize() int { return g.InC * (g.InH + 2*g.PadH) * (g.InW + 2*g.PadW) }

// Im2Col expands a single image of shape [C,H,W] (flattened in input)
// into a patch matrix of shape [OutH*OutW, C*KH*KW], writing into dst.
// Each row of dst holds one receptive field in channel-major order, so
// a convolution becomes dst @ W with W shaped [C*KH*KW, OutC].
// Out-of-bounds (padding) positions contribute zeros: the image is
// copied once into pad, a caller-owned scratch of g.PaddedSize()
// floats with a zeroed border, so every kernel row is one plain run.
func Im2Col(dst, input *Tensor, pad []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	patch := g.InC * g.KH * g.KW
	if dst.Size() != outH*outW*patch {
		panic(fmt.Sprintf("tensor: Im2Col dst size %d, want %d", dst.Size(), outH*outW*patch))
	}
	if input.Size() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input size %d, want %d", input.Size(), g.InC*g.InH*g.InW))
	}
	if len(pad) != g.PaddedSize() {
		panic(fmt.Sprintf("tensor: Im2Col pad size %d, want %d", len(pad), g.PaddedSize()))
	}
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	clear(pad)
	in := input.data
	for c := 0; c < g.InC; c++ {
		for y := 0; y < g.InH; y++ {
			r := (c*ph+y+g.PadH)*pw + g.PadW
			copy(pad[r:r+g.InW], in[(c*g.InH+y)*g.InW:])
		}
	}
	out := dst.data
	col := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			at := oy*g.StrideH*pw + ox*g.StrideW
			for c := 0; c < g.InC; c++ {
				src := c*ph*pw + at
				for ky := 0; ky < g.KH; ky++ {
					d, s := out[col:col+g.KW], pad[src:src+g.KW]
					for kx := range d {
						d[kx] = s[kx]
					}
					col += g.KW
					src += pw
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the patch matrix
// cols of shape [OutH*OutW, C*KH*KW] back into an image gradient of
// shape [C,H,W] in dst. The sums run in pad, a caller-owned scratch of
// g.PaddedSize() floats zeroed first, so no entry is bounds-tested;
// the interior is then copied to dst. Each dst element adds its
// entries from +0 in (oy, ox, c, ky, kx) order, as a scatter straight
// into dst would.
func Col2Im(dst, cols *Tensor, pad []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	patch := g.InC * g.KH * g.KW
	if cols.Size() != outH*outW*patch {
		panic(fmt.Sprintf("tensor: Col2Im cols size %d, want %d", cols.Size(), outH*outW*patch))
	}
	if dst.Size() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst size %d, want %d", dst.Size(), g.InC*g.InH*g.InW))
	}
	if len(pad) != g.PaddedSize() {
		panic(fmt.Sprintf("tensor: Col2Im pad size %d, want %d", len(pad), g.PaddedSize()))
	}
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	clear(pad)
	in := cols.data
	col := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			at := oy*g.StrideH*pw + ox*g.StrideW
			for c := 0; c < g.InC; c++ {
				d := c*ph*pw + at
				for ky := 0; ky < g.KH; ky++ {
					t, s := pad[d:d+g.KW], in[col:col+g.KW]
					for kx := range t {
						t[kx] += s[kx]
					}
					col += g.KW
					d += pw
				}
			}
		}
	}
	out := dst.data
	for c := 0; c < g.InC; c++ {
		for y := 0; y < g.InH; y++ {
			r := (c*ph+y+g.PadH)*pw + g.PadW
			copy(out[(c*g.InH+y)*g.InW:(c*g.InH+y+1)*g.InW], pad[r:r+g.InW])
		}
	}
}
