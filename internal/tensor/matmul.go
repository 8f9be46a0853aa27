package tensor

import "fmt"

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
	// matMulNarrowMaxN is the widest b (columns) that matMulRows hands
	// to the register-accumulating kernel. Wider products keep the
	// streaming kernel, whose inner loop is then long enough to pay
	// for the dst traffic: blocked, the conv backward's 75-150 column
	// products on mostly-zero gradients run slower.
	matMulNarrowMaxN = 32
)

// matMulRows computes rows [r0, r1) of dst = a @ b. Each output row is
// written exactly once and touched by exactly one caller, so disjoint
// row ranges may run concurrently and the result is bit-identical to a
// serial pass whatever the partitioning. Narrow and large products
// dispatch to their own kernels; every output element accumulates its
// products in ascending p order from +0 with the same zero-input skip
// in all three, so the choice never changes the output bits.
func matMulRows(dst, a, b *Tensor, r0, r1 int) {
	k, n := a.shape[1], b.shape[1]
	if n <= matMulNarrowMaxN {
		matMulRowsNarrow(dst, a, b, r0, r1)
		return
	}
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

// matMulRowsNarrow is the kernel for products whose b has at most
// matMulNarrowMaxN columns, where the streaming kernel's inner loop is
// too short to pay for loading and storing dst on every step. For each
// row it holds a block of output columns in local accumulators (eight
// at a time, then one block for the last n%8), walks p over the row of
// a once per block, and stores the block once. A row of more than one
// block gathers its nonzero positions once up front, so the blocks do
// not each re-test (and mispredict) the zero skip; a single block
// tests inline, which is cheaper on dense rows. Six columns, the
// fast LeNet's conv1, have a kernel of their own. Each accumulator
// starts at +0 and adds av*b[p][j] for ascending p, skipping exact-zero
// av, just as the streaming kernel does for that element, so no bit
// depends on the blocking.
func matMulRowsNarrow(dst, a, b *Tensor, r0, r1 int) {
	k, n := a.shape[1], b.shape[1]
	if n <= 8 {
		row := narrowRow
		if n == 6 {
			row = narrowRow6
		}
		for i := r0; i < r1; i++ {
			row(dst.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], b.data)
		}
		return
	}
	var buf [256]int32
	nz := buf[:]
	if k > len(buf) {
		nz = make([]int32, k)
	}
	for i := r0; i < r1; i++ {
		arow := a.data[i*k : (i+1)*k]
		cnt := 0
		for p, av := range arow {
			nz[cnt] = int32(p)
			if av != 0 {
				cnt++
			}
		}
		drow := dst.data[i*n : (i+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			narrowBlock8(drow[j:j+8], arow, nz[:cnt], b.data[j:], n)
		}
		if j < n {
			narrowTail(drow[j:], arow, nz[:cnt], b.data[j:], n)
		}
	}
}

// narrowRow computes one output row d of len(d) <= 8 columns,
// skipping the exact zeros of arow as it walks them.
func narrowRow(d, arow, bd []float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	n := len(d)
	for p, av := range arow {
		if av == 0 {
			continue
		}
		bb := bd[p*n : (p+1)*n]
		switch n {
		case 8:
			s7 += av * bb[7]
			fallthrough
		case 7:
			s6 += av * bb[6]
			fallthrough
		case 6:
			s5 += av * bb[5]
			fallthrough
		case 5:
			s4 += av * bb[4]
			fallthrough
		case 4:
			s3 += av * bb[3]
			fallthrough
		case 3:
			s2 += av * bb[2]
			fallthrough
		case 2:
			s1 += av * bb[1]
			fallthrough
		case 1:
			s0 += av * bb[0]
		}
	}
	s := [8]float64{s0, s1, s2, s3, s4, s5, s6, s7}
	copy(d, s[:n])
}

// narrowRow6 is narrowRow for a b of exactly six columns (the fast
// LeNet's conv1), with no width switch on every step of p.
func narrowRow6(d, arow, bd []float64) {
	var s0, s1, s2, s3, s4, s5 float64
	for p, av := range arow {
		if av == 0 {
			continue
		}
		bb := bd[p*6 : p*6+6]
		s0 += av * bb[0]
		s1 += av * bb[1]
		s2 += av * bb[2]
		s3 += av * bb[3]
		s4 += av * bb[4]
		s5 += av * bb[5]
	}
	d = d[:6]
	d[0], d[1], d[2], d[3], d[4], d[5] = s0, s1, s2, s3, s4, s5
}

// narrowBlock8 computes the eight columns d of one output row from the
// nonzero positions nz of arow; bd starts at the block's first column
// of a b with n columns.
func narrowBlock8(d, arow []float64, nz []int32, bd []float64, n int) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for _, p := range nz {
		av := arow[p]
		bb := bd[int(p)*n : int(p)*n+8]
		s0 += av * bb[0]
		s1 += av * bb[1]
		s2 += av * bb[2]
		s3 += av * bb[3]
		s4 += av * bb[4]
		s5 += av * bb[5]
		s6 += av * bb[6]
		s7 += av * bb[7]
	}
	d = d[:8]
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// narrowTail is narrowBlock8 for the last len(d) < 8 columns.
func narrowTail(d, arow []float64, nz []int32, bd []float64, n int) {
	var s0, s1, s2, s3, s4, s5, s6 float64
	w := len(d)
	for _, p := range nz {
		av := arow[p]
		bb := bd[int(p)*n : int(p)*n+w]
		switch w {
		case 7:
			s6 += av * bb[6]
			fallthrough
		case 6:
			s5 += av * bb[5]
			fallthrough
		case 5:
			s4 += av * bb[4]
			fallthrough
		case 4:
			s3 += av * bb[3]
			fallthrough
		case 3:
			s2 += av * bb[2]
			fallthrough
		case 2:
			s1 += av * bb[1]
			fallthrough
		case 1:
			s0 += av * bb[0]
		}
	}
	s := [7]float64{s0, s1, s2, s3, s4, s5, s6}
	copy(d, s[:w])
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
