package tensor

import (
	"fmt"
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
// exercise the zero-skip — and requires the dispatching kernel to match
// the streaming oracle with == (no tolerance).
func TestMatMulBlockedBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{3, 5, 7},    // tiny, unblocked
		{32, 64, 64}, // the bench shape, unblocked
		{4, matMulBlockK + 33, matMulBlockN + 17},   // ragged tiles, blocked
		{9, 3 * matMulBlockK, 2 * matMulBlockN},     // exact tiles, blocked
		{1, matMulBlockK * 4, matMulBlockN/2 + 111}, // tall-skinny, blocked
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			if blocked := s.k*s.n > matMulBlockMinFloats; !blocked && s.k > matMulBlockK {
				t.Logf("shape below threshold (k*n=%d)", s.k*s.n)
			}
			rng := NewRNG(int64(s.m*1000 + s.k*10 + s.n))
			a := New(s.m, s.k)
			b := New(s.k, s.n)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			// Sprinkle exact zeros so the skip path runs in both kernels.
			for i := 0; i < len(a.data); i += 7 {
				a.data[i] = 0
			}
			want := New(s.m, s.n)
			matMulReference(want, a, b)
			got := New(s.m, s.n)
			MatMulInto(got, a, b)
			for i, v := range want.data {
				if got.data[i] != v {
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
					if gw.data[i] != v {
						t.Fatalf("GOMAXPROCS=%d element %d differs: %v vs %v", procs, i, gw.data[i], v)
					}
				}
			}
		})
	}
}
