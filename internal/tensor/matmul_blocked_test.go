package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// matMulReference is the unblocked streaming kernel, kept verbatim as
// the oracle the dispatching matMulRows is proven against: ascending-p
// accumulation with the zero-input skip, exactly the arithmetic order
// the blocked kernel must preserve.
func matMulReference(dst, a, b *Tensor) {
	k, n := a.shape[1], b.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// TestMatMulBlockedBitIdentical drives shapes on both sides of the
// blocking threshold — including ragged tiles and sparse inputs that
// exercise the zero-skip — and narrow products of every column count
// around the register blocks (one, two and several blocks of eight,
// with and without a tail, and the first width past the narrow limit).
// a is ReLU-sparse with a random zero pattern and some -0 entries, and
// the dispatching kernel must match the streaming oracle bit for bit.
func TestMatMulBlockedBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{3, 5, 7},    // tiny, narrow
		{32, 64, 64}, // the bench shape, streaming
		{4, matMulBlockK + 33, matMulBlockN + 17},   // ragged tiles, blocked
		{9, 3 * matMulBlockK, 2 * matMulBlockN},     // exact tiles, blocked
		{1, matMulBlockK * 4, matMulBlockN/2 + 111}, // tall-skinny, blocked
	}
	for _, n := range []int{1, 2, 3, 5, 6, 7, 8, 9, 16, 31, 32, matMulNarrowMaxN + 1} {
		for _, k := range []int{1, 8, 75, 150} {
			shapes = append(shapes, struct{ m, k, n int }{5, k, n})
		}
	}
	shapes = append(shapes, struct{ m, k, n int }{3, 300, 16}) // nonzero list past its stack buffer
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(int64(s.m*1000 + s.k*10 + s.n))
			a := New(s.m, s.k)
			b := New(s.k, s.n)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			// A ReLU's zero pattern, so the skip path runs in every
			// kernel; every third zero is -0, which is skipped too.
			zeros := 0
			for i, v := range a.data {
				if v < 0 {
					a.data[i] = 0
					if zeros++; zeros%3 == 0 {
						a.data[i] = math.Copysign(0, -1)
					}
				}
			}
			want := New(s.m, s.n)
			matMulReference(want, a, b)
			got := New(s.m, s.n)
			MatMulInto(got, a, b)
			for i, v := range want.data {
				if math.Float64bits(got.data[i]) != math.Float64bits(v) {
					t.Fatalf("element %d differs: %v vs %v", i, got.data[i], v)
				}
			}
			// The row-parallel entry must dispatch identically too, for
			// every chunk count GOMAXPROCS allows.
			for _, procs := range []int{1, 2, 8} {
				gw := New(s.m, s.n)
				prev := runtime.GOMAXPROCS(procs)
				ParallelMatMulInto(gw, a, b)
				runtime.GOMAXPROCS(prev)
				for i, v := range want.data {
					if math.Float64bits(gw.data[i]) != math.Float64bits(v) {
						t.Fatalf("GOMAXPROCS=%d element %d differs: %v vs %v", procs, i, gw.data[i], v)
					}
				}
			}
		})
	}
}
