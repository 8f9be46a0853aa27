package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Deterministic intra-kernel parallelism.
//
// The network hot loops (dense/conv forward passes, the conv backward)
// are embarrassingly parallel over output rows or samples: every row of
// dst = a @ b is produced by one independent dot-product sweep, with no
// cross-row reduction. Partitioning rows across goroutines therefore
// changes scheduling only, never arithmetic order — the output bytes
// are identical for every chunk count, which is what lets campaign
// shards run parallel kernels without breaking the engine's
// byte-identical-results guarantee (parallelism stays inside a shard;
// all reductions run in fixed order on the caller's goroutine).
//
// A process-wide token pool bounds the total number of extra kernel
// goroutines to GOMAXPROCS, so nested parallelism (campaign workers x
// kernel chunks) degrades gracefully to inline execution instead of
// oversubscribing the machine: chunk boundaries depend only on the
// shapes and GOMAXPROCS, and a chunk that cannot get a token is simply
// computed by the caller.

// kernelTokens bounds concurrently running extra kernel goroutines.
var kernelTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// ParallelRows partitions [0, m) into at most GOMAXPROCS contiguous
// chunks (read on each call, and capped by the token pool) and runs f
// on each, spawning a goroutine per extra chunk when a pool token is
// free and running inline otherwise. f must be safe to run
// concurrently on disjoint ranges; for bit-identical results the work
// on each index must be independent of the chunking (true for per-row
// or per-sample kernels).
func ParallelRows(m int, f func(r0, r1 int)) {
	workers := min(runtime.GOMAXPROCS(0), cap(kernelTokens), m)
	if workers <= 1 {
		f(0, m)
		return
	}
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for r0 := chunk; r0 < m; r0 += chunk {
		r1 := min(r0+chunk, m)
		select {
		case kernelTokens <- struct{}{}:
			wg.Add(1)
			go func(r0, r1 int) {
				defer func() { <-kernelTokens; wg.Done() }()
				f(r0, r1)
			}(r0, r1)
		default:
			f(r0, r1)
		}
	}
	f(0, chunk) // the caller always computes the first chunk itself
	wg.Wait()
}

// ParallelMatMulInto computes dst = a @ b like MatMulInto, splitting
// the output rows over ParallelRows. The result is bit-identical for
// every chunk count.
func ParallelMatMulInto(dst, a, b *Tensor) {
	m := a.shape[0]
	n := b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: ParallelMatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ParallelRows(m, func(r0, r1 int) { matMulRows(dst, a, b, r0, r1) })
}
