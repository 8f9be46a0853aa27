package tensor

import (
	"math"
	"testing"
)

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-padding 5x5: out = %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if g2.OutH() != 2 || g2.OutW() != 2 {
		t.Fatalf("stride-2 pooling geometry: out = %dx%d, want 2x2", g2.OutH(), g2.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: geometry %+v should be invalid", i, g)
		}
	}
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

// TestIm2ColKnownPatch verifies the patch layout on a hand-computed 1x3x3
// input with a 2x2 kernel.
func TestIm2ColKnownPatch(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	in := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2Col(cols, in, g)
	// First patch: rows (1,2),(4,5); last patch: (5,6),(8,9).
	want0 := []float64{1, 2, 4, 5}
	want3 := []float64{5, 6, 8, 9}
	for i, v := range want0 {
		if cols.At(0, i) != v {
			t.Fatalf("patch 0 = %v, want %v", cols.RowSlice(0).Data(), want0)
		}
	}
	for i, v := range want3 {
		if cols.At(3, i) != v {
			t.Fatalf("patch 3 = %v, want %v", cols.RowSlice(3).Data(), want3)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := New(g.OutH()*g.OutW(), 9)
	Im2Col(cols, in, g)
	// Top-left output position: the 3x3 window centred at (0,0) has its
	// first row and first column in padding.
	row := cols.RowSlice(0).Data()
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, v := range want {
		if row[i] != v {
			t.Fatalf("padded patch = %v, want %v", row, want)
		}
	}
}

func TestIm2ColMultiChannelOrder(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	in := FromSlice([]float64{
		1, 2, 3, 4, // channel 0
		5, 6, 7, 8, // channel 1
	}, 2, 2, 2)
	cols := New(1, 8)
	Im2Col(cols, in, g)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range want {
		if cols.Data()[i] != v {
			t.Fatalf("channel-major patch = %v, want %v", cols.Data(), want)
		}
	}
}

// im2colReference is the per-element Im2Col: every patch entry tests
// its own bounds. It is the oracle for Im2Col's interior fast path.
func im2colReference(dst, input *Tensor, g ConvGeom) {
	in, out := input.data, dst.data
	col := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						iy := oy*g.StrideH - g.PadH + ky
						ix := ox*g.StrideW - g.PadW + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							out[col] = 0
						} else {
							out[col] = in[(c*g.InH+iy)*g.InW+ix]
						}
						col++
					}
				}
			}
		}
	}
}

// TestIm2ColMatchesReference compares Im2Col with the per-element
// oracle, bit for bit, over strides 1 and 2, padding 0 to 2 and
// kernels from 1 wide to wider than the input, on a dst prefilled with
// garbage so every entry must be written.
func TestIm2ColMatchesReference(t *testing.T) {
	rng := NewRNG(11)
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2} {
			for _, kw := range []int{1, 3, 5, 7} {
				g := ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
				if g.Validate() != nil {
					continue
				}
				x := New(g.InC, g.InH, g.InW)
				rng.FillNormal(x, 0, 1)
				rows, patch := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
				want, got := New(rows, patch), New(rows, patch)
				got.Fill(math.NaN())
				im2colReference(want, x, g)
				Im2Col(got, x, g)
				for i, v := range want.data {
					if math.Float64bits(got.data[i]) != math.Float64bits(v) {
						t.Fatalf("%+v: entry %d is %v, want %v", g, i, got.data[i], v)
					}
				}
			}
		}
	}
}

// TestCol2ImIsAdjointOfIm2Col verifies <Im2Col(x), y> == <x, Col2Im(y)>
// for random x, y — the defining property of the adjoint, which is
// exactly what backprop through a conv layer requires.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(5), InW: 3 + rng.Intn(5),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if g.Validate() != nil {
			continue
		}
		x := New(g.InC, g.InH, g.InW)
		rng.FillNormal(x, 0, 1)
		rows := g.OutH() * g.OutW()
		patch := g.InC * g.KH * g.KW

		ax := New(rows, patch)
		Im2Col(ax, x, g)
		y := New(rows, patch)
		rng.FillNormal(y, 0, 1)
		aty := New(g.InC, g.InH, g.InW)
		Col2Im(aty, y, g)

		lhs, rhs := 0.0, 0.0
		for i, v := range ax.Data() {
			lhs += v * y.Data()[i]
		}
		for i, v := range x.Data() {
			rhs += v * aty.Data()[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint identity violated for %+v: %g vs %g", g, lhs, rhs)
		}
	}
}

// TestIm2ColConvolutionEquivalence performs a conv via im2col+matmul and
// checks it against a direct nested-loop convolution.
func TestIm2ColConvolutionEquivalence(t *testing.T) {
	rng := NewRNG(3)
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	outC := 4
	x := New(g.InC, g.InH, g.InW)
	w := New(g.InC*g.KH*g.KW, outC)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 1)

	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2Col(cols, x, g)
	got := matMul(cols, w) // [OutH*OutW, outC]

	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < g.OutH(); oy++ {
			for ox := 0; ox < g.OutW(); ox++ {
				s := 0.0
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy := oy*g.StrideH - g.PadH + ky
							ix := ox*g.StrideW - g.PadW + kx
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							wIdx := (c*g.KH+ky)*g.KW + kx
							s += x.At(c, iy, ix) * w.At(wIdx, oc)
						}
					}
				}
				if math.Abs(got.At(oy*g.OutW()+ox, oc)-s) > 1e-9 {
					t.Fatalf("im2col conv disagrees with direct conv at oc=%d oy=%d ox=%d", oc, oy, ox)
				}
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c1 := NewRNG(42).Split()
	c2 := NewRNG(42).Split()
	if c1.Float64() != c2.Float64() {
		t.Fatal("Split must be deterministic")
	}
}

func TestInitializerScales(t *testing.T) {
	rng := NewRNG(5)
	w := New(1000)
	rng.HeInit(w, 100)
	std := w.Std()
	want := math.Sqrt(2.0 / 100.0)
	if math.Abs(std-want) > 0.02 {
		t.Fatalf("He init std = %g, want ~%g", std, want)
	}
}
