package tensor

import "fmt"

// MatMulInto computes dst = a @ b for rank-2 tensors a[m,k] and
// b[k,n], reusing dst's storage. dst must have shape [m, n] and must
// not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto needs rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimensions differ: %v @ %v", a.shape, b.shape))
	}
	m, n := a.shape[0], b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	matMulRows(dst, a, b, 0, m)
}

// Cache-blocking parameters for the tiled matmul kernel. A b-tile is
// blockK x blockN float64s (256 KiB), sized to stay resident in L2
// while every row of the chunk streams over it. Blocking only pays once
// b itself outgrows the cache, so small products keep the simple
// streaming kernel (and its exact per-op cost profile).
const (
	matMulBlockK = 128
	matMulBlockN = 256
	// matMulBlockMinFloats is the size of b (k*n elements) above which
	// matMulRows switches to the tiled kernel.
	matMulBlockMinFloats = matMulBlockK * matMulBlockN
)

// matMulRows computes rows [r0, r1) of dst = a @ b. Each output row is
// written exactly once and touched by exactly one caller, so disjoint
// row ranges may run concurrently and the result is bit-identical to a
// serial pass whatever the partitioning. Large products dispatch to the
// cache-blocked kernel; every output element accumulates its products
// in ascending p order with the same zero-input skip in both kernels,
// so the choice never changes the output bits.
func matMulRows(dst, a, b *Tensor, r0, r1 int) {
	k, n := a.shape[1], b.shape[1]
	if k*n > matMulBlockMinFloats {
		matMulRowsBlocked(dst, a, b, r0, r1)
		return
	}
	for i := r0; i < r1; i++ {
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

// matMulRowsBlocked is the tiled variant of matMulRows: b is walked one
// blockK x blockN tile at a time so each tile is loaded from memory
// once and reused by every row of the chunk while it sits in cache.
// The p-tile loop is outermost and ascends, and within a tile p
// ascends, so each dst element still receives its partial products in
// exactly the order of the streaming kernel.
func matMulRowsBlocked(dst, a, b *Tensor, r0, r1 int) {
	k, n := a.shape[1], b.shape[1]
	for i := r0; i < r1; i++ {
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += matMulBlockK {
		p1 := p0 + matMulBlockK
		if p1 > k {
			p1 = k
		}
		for j0 := 0; j0 < n; j0 += matMulBlockN {
			j1 := j0 + matMulBlockN
			if j1 > n {
				j1 = n
			}
			for i := r0; i < r1; i++ {
				arow := a.data[i*k : (i+1)*k]
				drow := dst.data[i*n+j0 : i*n+j1]
				for p := p0; p < p1; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b.data[p*n+j0 : p*n+j1]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulATInto computes dst = aᵀ @ b where a is [k,m] and b is [k,n],
// producing dst [m,n]. Used by dense/conv backward passes to avoid
// materialising explicit transposes.
func MatMulATInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulATInto inner dimensions differ: %vᵀ @ %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulATInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	dst.Zero()
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}
