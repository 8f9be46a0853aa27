package campaign

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// TestStreamMatchesBufferedBitwise: a streaming campaign must produce
// the same mean/std/ci95/min/max bits as a buffered one — both fold
// their shards through one aggregator in index order.
func TestStreamMatchesBufferedBitwise(t *testing.T) {
	spec := Spec{Experiments: []string{"alpha", "beta"}, Seeds: 40, BaseSeed: 42}
	buffered, err := Run(context.Background(), spec, Config{Workers: 4, Resolve: fakeResolver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Run(context.Background(), spec, Config{Workers: 4, Resolve: fakeResolver(nil), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Shards) != 0 {
		t.Fatalf("streaming result must not buffer shards, got %d", len(streamed.Shards))
	}
	if len(streamed.Aggregates) != len(buffered.Aggregates) {
		t.Fatalf("aggregate count: streaming %d vs buffered %d", len(streamed.Aggregates), len(buffered.Aggregates))
	}
	for i, b := range buffered.Aggregates {
		s := streamed.Aggregates[i]
		if s.Experiment != b.Experiment || s.Metric != b.Metric || s.N != b.N {
			t.Fatalf("aggregate %d identity mismatch: %+v vs %+v", i, s, b)
		}
		for _, c := range []struct {
			name string
			s, b float64
		}{
			{"mean", s.Mean, b.Mean}, {"std", s.Std, b.Std}, {"ci95", s.CI95, b.CI95},
			{"min", s.Min, b.Min}, {"max", s.Max, b.Max},
		} {
			if math.Float64bits(c.s) != math.Float64bits(c.b) {
				t.Errorf("%s/%s %s: streaming %v != buffered %v", b.Experiment, b.Metric, c.name, c.s, c.b)
			}
		}
		if s.Quantiles == nil {
			t.Errorf("%s/%s: streaming aggregate missing quantiles", b.Experiment, b.Metric)
		}
		if b.Quantiles != nil {
			t.Errorf("%s/%s: buffered aggregate must not carry quantiles", b.Experiment, b.Metric)
		}
	}
}

// TestStreamDeterministicAcrossWorkers: the streaming JSON must be
// byte-identical whatever the worker count — the same canonical-output
// guarantee the buffered engine makes.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{Experiments: []string{"alpha", "beta"}, Seeds: 24, BaseSeed: 7}
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(context.Background(), spec, Config{Workers: workers, Resolve: fakeResolver(nil), Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		b := mustJSON(t, res)
		if ref == nil {
			ref = b
		} else if string(ref) != string(b) {
			t.Fatalf("streaming output differs at %d workers", workers)
		}
	}
}

// TestStreamWindowBoundsMemory: the reorder window must cap how many
// completed shards wait un-drained — O(window), not O(seeds).
func TestStreamWindowBoundsMemory(t *testing.T) {
	const workers = 4
	window := 4 * workers
	if window < 16 {
		window = 16
	}
	maxPending := 0
	spec := Spec{Experiments: []string{"alpha"}, Seeds: 200, BaseSeed: 3}
	_, err := Run(context.Background(), spec, Config{
		Workers: workers,
		Resolve: fakeResolver(nil),
		Stream:  true,
		testPending: func(n int) {
			if n > maxPending {
				maxPending = n
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxPending == 0 {
		t.Fatal("test hook never observed the reorder window")
	}
	if maxPending > window {
		t.Fatalf("reorder window held %d shards, bound is %d", maxPending, window)
	}
}

// TestStreamAggSteadyStateZeroAlloc is the allocs-bounded memory test
// of the acceptance criteria: once every (experiment, metric) key
// exists, folding in further shards allocates nothing, so aggregation
// memory is O(metrics x buckets) — independent of the seed count.
func TestStreamAggSteadyStateZeroAlloc(t *testing.T) {
	agg := newAggregator()
	m := Metrics{"value": 1.5, "sqrt": 2.5, "seedmod": 3.5}
	agg.add("alpha", m) // create the keys
	allocs := testing.AllocsPerRun(1000, func() {
		agg.add("alpha", m)
	})
	if allocs != 0 {
		t.Fatalf("streaming aggregation allocates per shard: %v allocs/op", allocs)
	}
}

// TestStreamResumeMatchesUninterrupted: a streaming run resumed from a
// checkpoint must emit the same bytes as an uninterrupted streaming
// run — resumed shards drain through the same in-order fold.
func TestStreamResumeMatchesUninterrupted(t *testing.T) {
	spec := Spec{Experiments: []string{"alpha", "beta"}, Seeds: 10, BaseSeed: 19}
	full, err := Run(context.Background(), spec, Config{Workers: 2, Resolve: fakeResolver(nil), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	// First pass journals everything (buffered mode writes the same
	// checkpoint records); second pass resumes it in streaming mode.
	if _, err := Run(context.Background(), spec, Config{Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), spec, Config{
		Workers: 2, Resolve: fakeResolver(nil), Stream: true,
		CheckpointPath: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(spec.Shards()) {
		t.Fatalf("expected a fully resumed run, got %d/%d", resumed.Resumed, len(spec.Shards()))
	}
	if string(mustJSON(t, full)) != string(mustJSON(t, resumed)) {
		t.Fatal("resumed streaming output differs from uninterrupted run")
	}
}
