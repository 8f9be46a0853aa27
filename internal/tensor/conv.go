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

// Im2Col expands a single image of shape [C,H,W] (flattened in input)
// into a patch matrix of shape [OutH*OutW, C*KH*KW], writing into dst.
// Each row of dst holds one receptive field in channel-major order, so
// a convolution becomes dst @ W with W shaped [C*KH*KW, OutC].
// Out-of-bounds (padding) positions contribute zeros.
func Im2Col(dst, input *Tensor, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	patch := g.InC * g.KH * g.KW
	if dst.Size() != outH*outW*patch {
		panic(fmt.Sprintf("tensor: Im2Col dst size %d, want %d", dst.Size(), outH*outW*patch))
	}
	if input.Size() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input size %d, want %d", input.Size(), g.InC*g.InH*g.InW))
	}
	in := input.data
	out := dst.data
	row := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.StrideH - g.PadH
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.StrideW - g.PadW
			// A window wholly inside the image in x copies each kernel
			// row as one run, with no per-element bounds test.
			interior := ix0 >= 0 && ix0+g.KW <= g.InW
			col := row * patch
			for c := 0; c < g.InC; c++ {
				cOff := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					d := out[col : col+g.KW]
					col += g.KW
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						clear(d)
						continue
					}
					rOff := cOff + iy*g.InW
					if interior {
						src := in[rOff+ix0 : rOff+ix0+len(d)]
						for kx := range d {
							d[kx] = src[kx]
						}
						continue
					}
					for kx := range d {
						if ix := ix0 + kx; ix < 0 || ix >= g.InW {
							d[kx] = 0
						} else {
							d[kx] = in[rOff+ix]
						}
					}
				}
			}
			row++
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the patch matrix
// cols of shape [OutH*OutW, C*KH*KW] back into an image gradient of
// shape [C,H,W] in dst. dst is zeroed first.
func Col2Im(dst, cols *Tensor, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	patch := g.InC * g.KH * g.KW
	if cols.Size() != outH*outW*patch {
		panic(fmt.Sprintf("tensor: Col2Im cols size %d, want %d", cols.Size(), outH*outW*patch))
	}
	if dst.Size() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst size %d, want %d", dst.Size(), g.InC*g.InH*g.InW))
	}
	dst.Zero()
	out := dst.data
	in := cols.data
	row := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.StrideH - g.PadH
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.StrideW - g.PadW
			base := row * patch
			col := 0
			for c := 0; c < g.InC; c++ {
				cOff := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						col += g.KW
						continue
					}
					rOff := cOff + iy*g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix >= 0 && ix < g.InW {
							out[rOff+ix] += in[base+col]
						}
						col++
					}
				}
			}
			row++
		}
	}
}
