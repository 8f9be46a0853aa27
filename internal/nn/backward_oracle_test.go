package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"memlife/internal/tensor"
)

// oracleGrads holds what one serial reference backward produces.
type oracleGrads struct {
	dx, dW, db *tensor.Tensor
}

// matMulBTDense computes dst = a @ bᵀ (a [m,k], b [n,k]) as a dense dot
// product per element: no zero skip, ascending p from +0.
func matMulBTDense(dst, a, b *tensor.Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	ad, bd, dd := a.Data(), b.Data(), dst.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[j*k+p]
			}
			dd[i*n+j] = s
		}
	}
}

// serialConvBackward is the reference conv backward: one goroutine,
// one sample at a time, dW = colsᵀ @ dpos added into g.dW per sample and
// dx = dpos @ Wᵀ as dense dot products. It reads the layer's cached
// training state and writes only g.
func serialConvBackward(l *Conv2D, dout *tensor.Tensor, g *oracleGrads) {
	b := dout.Dim(0)
	positions := l.Geom.OutH() * l.Geom.OutW()
	patch := l.Geom.InC * l.Geom.KH * l.Geom.KW

	g.dx = tensor.New(b, l.InputSize())
	dpos := tensor.New(positions, l.OutC)
	dW := tensor.New(patch, l.OutC)
	dcols := tensor.New(positions, patch)
	dimg := tensor.New(l.Geom.InC, l.Geom.InH, l.Geom.InW)
	for s := 0; s < b; s++ {
		row := dout.RowSlice(s).Data()
		dp := dpos.Data()
		for c := 0; c < l.OutC; c++ {
			gsum := 0.0
			for p := 0; p < positions; p++ {
				v := row[c*positions+p]
				dp[p*l.OutC+c] = v
				gsum += v
			}
			g.db.Data()[c] += gsum
		}
		tensor.MatMulATInto(dW, l.cols[s], dpos)
		g.dW.Axpy(1, dW)
		matMulBTDense(dcols, dpos, l.Weight.W)
		tensor.Col2Im(dimg, dcols, l.Geom)
		copy(g.dx.RowSlice(s).Data(), dimg.Data())
	}
}

// serialDenseBackward is the reference dense backward, with dx as dense
// dot products.
func serialDenseBackward(l *Dense, dout *tensor.Tensor, g *oracleGrads) {
	dW := tensor.New(l.In, l.Out)
	tensor.MatMulATInto(dW, l.x, dout)
	g.dW.Axpy(1, dW)
	g.db.Axpy(1, dout.SumRows())
	g.dx = tensor.New(dout.Dim(0), l.In)
	matMulBTDense(g.dx, dout, l.Weight.W)
}

// sparseGrad fills a [b, n] gradient with normal values, then zeroes
// about 60% of the entries, half of them as -0 — the mix ReLU and
// max-pool leave behind, plus the negative zeros a serial sum must
// absorb.
func sparseGrad(rng *tensor.RNG, b, n int) *tensor.Tensor {
	d := tensor.New(b, n)
	rng.FillNormal(d, 0, 1)
	for i := range d.Data() {
		switch u := rng.Float64(); {
		case u < 0.3:
			d.Data()[i] = 0
		case u < 0.6:
			d.Data()[i] = math.Copysign(0, -1)
		}
	}
	return d
}

// assertBits fails unless got and want hold the same float64 bits.
func assertBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", what, got.Size(), want.Size())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestBackwardMatchesSerialOracleBits: the parallel, zero-skipping
// conv and dense backwards reproduce the serial dense-dot-product
// reference bit for bit — dx of every call, and dW and db accumulated
// over two successive calls — for batches that split into uneven
// chunks, on sparse gradients with ±0 entries and negative values.
// The training forward over the pool matches an eval forward under
// GOMAXPROCS=1 too.
func TestBackwardMatchesSerialOracleBits(t *testing.T) {
	geoms := []tensor.ConvGeom{
		{InC: 2, InH: 7, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 3, InH: 9, InW: 9, KH: 5, KW: 5, StrideH: 2, StrideW: 2},
	}
	for _, b := range []int{1, 3, 33} {
		for gi, geom := range geoms {
			t.Run(fmt.Sprintf("conv%d/b%d", gi, b), func(t *testing.T) {
				rng := tensor.NewRNG(int64(100*gi + b))
				l := NewConv2D("c", geom, 5, rng)
				x := tensor.New(b, l.InputSize())
				rng.FillNormal(x, 0, 1)
				x = (&ReLU{}).Forward(x, false) // zero entries in cols as well
				checkLayerAgainstOracle(t, l, l.Weight, l.Bias, x, rng,
					func(dout *tensor.Tensor, g *oracleGrads) { serialConvBackward(l, dout, g) })
			})
		}
		t.Run(fmt.Sprintf("dense/b%d", b), func(t *testing.T) {
			rng := tensor.NewRNG(int64(7 + b))
			l := NewDense("d", 13, 6, rng)
			x := tensor.New(b, 13)
			rng.FillNormal(x, 0, 1)
			checkLayerAgainstOracle(t, l, l.Weight, l.Bias, x, rng,
				func(dout *tensor.Tensor, g *oracleGrads) { serialDenseBackward(l, dout, g) })
		})
	}
}

// checkLayerAgainstOracle runs one training forward of l on x, then two
// backwards on fresh sparse gradients, comparing each against the
// serial oracle.
func checkLayerAgainstOracle(t *testing.T, l Layer, w, bias *Param, x *tensor.Tensor, rng *tensor.RNG, oracle func(*tensor.Tensor, *oracleGrads)) {
	t.Helper()
	out := l.Forward(x, true)
	prev := runtime.GOMAXPROCS(1)
	serial := l.Forward(x, false)
	runtime.GOMAXPROCS(prev)
	assertBits(t, "train forward", out, serial)

	want := &oracleGrads{dW: tensor.New(w.W.Shape()...), db: tensor.New(bias.W.Shape()...)}
	for call := 1; call <= 2; call++ {
		dout := sparseGrad(rng, x.Dim(0), out.Dim(1))
		oracle(dout, want)
		dx := l.Backward(dout)
		assertBits(t, fmt.Sprintf("call %d dx", call), dx, want.dx)
		assertBits(t, fmt.Sprintf("call %d dW", call), w.Grad, want.dW)
		assertBits(t, fmt.Sprintf("call %d db", call), bias.Grad, want.db)
	}
}

// TestElementwiseLayersMatchSerialBits: ReLU and MaxPool2D run their
// samples over the kernel token pool; a training forward and backward
// with GOMAXPROCS=4 must give the outputs, masks, argmax and dx of a
// GOMAXPROCS=1 pass bit for bit, for batches that split into uneven
// chunks. Inputs hold -0, NaN and negatives, which ReLU maps to +0.
func TestElementwiseLayersMatchSerialBits(t *testing.T) {
	pool := tensor.ConvGeom{InC: 3, InH: 6, InW: 5, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	for _, b := range []int{1, 3, 33} {
		rng := tensor.NewRNG(int64(b))
		x := tensor.New(b, pool.InC*pool.InH*pool.InW)
		rng.FillNormal(x, 0, 1)
		for i := 0; i < x.Size(); i += 5 {
			x.Data()[i] = math.Copysign(0, -1)
		}
		for i := 2; i < x.Size(); i += 11 {
			x.Data()[i] = math.NaN()
		}
		dout := map[string]*tensor.Tensor{
			"relu": sparseGrad(rng, b, x.Dim(1)),
			"pool": sparseGrad(rng, b, pool.InC*pool.OutH()*pool.OutW()),
		}
		type pass struct {
			out, dx *tensor.Tensor
			mask    []bool
			argmax  []int
		}
		run := func(procs int, name string) pass {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			switch name {
			case "relu":
				l := NewReLU()
				out := l.Forward(x, true)
				return pass{out: out, dx: l.Backward(dout[name]), mask: l.mask}
			default:
				l := NewMaxPool2D("p", pool)
				out := l.Forward(x, true)
				return pass{out: out, dx: l.Backward(dout[name]), argmax: l.argmax}
			}
		}
		for _, name := range []string{"relu", "pool"} {
			serial, pooled := run(1, name), run(4, name)
			what := fmt.Sprintf("%s b=%d", name, b)
			assertBits(t, what+" forward", pooled.out, serial.out)
			assertBits(t, what+" dx", pooled.dx, serial.dx)
			if fmt.Sprint(pooled.mask, pooled.argmax) != fmt.Sprint(serial.mask, serial.argmax) {
				t.Fatalf("%s: pooled mask/argmax differ from serial", what)
			}
			if name == "relu" {
				for i, v := range x.Data() {
					if !(v > 0) && math.Float64bits(serial.out.Data()[i]) != 0 {
						t.Fatalf("%s: input %v gave %v, want +0", what, v, serial.out.Data()[i])
					}
				}
			}
		}
	}
}
