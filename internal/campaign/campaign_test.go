package campaign

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeResolver returns a resolver whose runners compute seed-derived
// metrics with some floating-point work (so schedule-dependent
// summation would be caught) and jittered durations (so completion
// order differs from shard order under parallelism).
func fakeResolver(calls *atomic.Int64) Resolver {
	return func(exp string) (RunnerFunc, bool) {
		if strings.HasPrefix(exp, "bad") {
			return nil, false
		}
		return func(ctx context.Context, s Shard, log io.Writer) (Metrics, error) {
			if calls != nil {
				calls.Add(1)
			}
			// Deterministic seed-dependent jitter: later shards may
			// finish before earlier ones.
			time.Sleep(time.Duration(s.Seed%7) * time.Millisecond)
			fmt.Fprintf(log, "shard %s working\n", s.Label())
			v := float64(s.Seed%1000) / 7.0
			return Metrics{
				"value":   v,
				"sqrt":    math.Sqrt(v + 1),
				"seedmod": float64(s.Seed % 13),
			}, nil
		}, true
	}
}

func mustJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testSpec() Spec {
	return Spec{Experiments: []string{"alpha", "beta"}, Seeds: 6, BaseSeed: 42}
}

func TestShardSeedDerivation(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := ShardSeed(42, i)
		if s < 0 {
			t.Fatalf("ShardSeed(42, %d) = %d, want non-negative", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ShardSeed collision: indices %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Fatal("different base seeds must derive different shard seeds")
	}
	if ShardSeed(7, 3) != ShardSeed(7, 3) {
		t.Fatal("derivation must be deterministic")
	}
}

func TestSpecShardsExpansion(t *testing.T) {
	spec := testSpec()
	shards := spec.Shards()
	if len(shards) != 12 {
		t.Fatalf("got %d shards, want 12", len(shards))
	}
	for i, s := range shards {
		if s.Index != i {
			t.Fatalf("shard %d has index %d", i, s.Index)
		}
		if s.Seed != ShardSeed(spec.BaseSeed, i) {
			t.Fatalf("shard %d seed not derived from (base, index)", i)
		}
	}
	if shards[0].Experiment != "alpha" || shards[6].Experiment != "beta" {
		t.Fatalf("experiments not expanded in spec order: %+v", shards)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []Spec{
		{Seeds: 1},
		{Experiments: []string{"a"}, Seeds: 0},
		{Experiments: []string{"a", "a"}, Seeds: 1},
		{Experiments: []string{""}, Seeds: 1},
	}
	for _, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %+v must not validate", spec)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestDeterministicAcrossWorkers is the engine's core guarantee: the
// same spec produces byte-identical JSON for any worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	var ref []byte
	for _, workers := range []int{1, 3, 8, 16} {
		res, err := Run(context.Background(), spec, Config{
			Workers: workers,
			Resolve: fakeResolver(nil),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := mustJSON(t, res)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d JSON differs from workers=1:\n%s\n--- vs ---\n%s", workers, ref, got)
		}
	}
}

func TestAggregates(t *testing.T) {
	res, err := Run(context.Background(), Spec{Experiments: []string{"alpha"}, Seeds: 5, BaseSeed: 9}, Config{
		Workers: 2,
		Resolve: func(string) (RunnerFunc, bool) {
			return func(ctx context.Context, s Shard, log io.Writer) (Metrics, error) {
				return Metrics{"m": float64(s.SeedIndex)}, nil // 0,1,2,3,4
			}, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregates) != 1 {
		t.Fatalf("got %d aggregates, want 1", len(res.Aggregates))
	}
	a := res.Aggregates[0]
	if a.Experiment != "alpha" || a.Metric != "m" || a.N != 5 {
		t.Fatalf("aggregate identity wrong: %+v", a)
	}
	if a.Mean != 2 || a.Min != 0 || a.Max != 4 {
		t.Fatalf("mean/min/max wrong: %+v", a)
	}
	wantStd := math.Sqrt(2.5) // sample std of 0..4
	if math.Abs(a.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %g, want %g", a.Std, wantStd)
	}
	wantCI := 2.776 * wantStd / math.Sqrt(5)
	if math.Abs(a.CI95-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %g, want %g", a.CI95, wantCI)
	}
}

// TestResumeMatchesUninterrupted kills a campaign partway (a runner
// that fails after K shards), resumes it, and requires the final JSON
// to be byte-identical to an uninterrupted run — and the journaled
// shards to not re-run.
func TestResumeMatchesUninterrupted(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.jsonl")

	full, err := Run(context.Background(), spec, Config{Workers: 4, Resolve: fakeResolver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, full)

	// First attempt: fail after 5 successful shards.
	var calls atomic.Int64
	failing := func(exp string) (RunnerFunc, bool) {
		inner, ok := fakeResolver(&calls)(exp)
		if !ok {
			return nil, false
		}
		return func(ctx context.Context, s Shard, log io.Writer) (Metrics, error) {
			if calls.Load() >= 5 {
				return nil, fmt.Errorf("injected failure")
			}
			return inner(ctx, s, log)
		}, true
	}
	if _, err := Run(context.Background(), spec, Config{
		Workers: 1, Resolve: failing, CheckpointPath: ckpt,
	}); err == nil {
		t.Fatal("interrupted run must report the injected failure")
	}

	// Resume: only the missing shards may run.
	var resumedCalls atomic.Int64
	res, err := Run(context.Background(), spec, Config{
		Workers: 4, Resolve: fakeResolver(&resumedCalls), CheckpointPath: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); !bytes.Equal(want, got) {
		t.Fatalf("resumed JSON differs from uninterrupted run:\n%s\n--- vs ---\n%s", want, got)
	}
	if res.Resumed == 0 {
		t.Fatal("resumed run must report restored shards")
	}
	if int(resumedCalls.Load())+res.Resumed != len(spec.Shards()) {
		t.Fatalf("resume re-ran journaled shards: %d calls + %d resumed != %d",
			resumedCalls.Load(), res.Resumed, len(spec.Shards()))
	}
}

// TestResumeToleratesTornTail simulates a kill mid-append: a truncated
// final journal line must be ignored, not fatal.
func TestResumeToleratesTornTail(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.jsonl")
	if _, err := Run(context.Background(), spec, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, b[:len(b)-10], 0o644); err != nil { // tear the tail
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	full, err := Run(context.Background(), spec, Config{Workers: 1, Resolve: fakeResolver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, full), mustJSON(t, res)) {
		t.Fatal("torn-tail resume result differs from clean run")
	}
}

// TestResumeTwiceAfterTornTail: a kill that tears the journal must not
// poison later resumes. Drop the last record and the tail of the one
// before it, then resume twice: the first resume re-runs the two torn
// shards, and the second finds a clean journal, re-runs nothing and
// matches the clean run.
func TestResumeTwiceAfterTornTail(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "run.jsonl")
	full, err := Run(context.Background(), spec, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
	if err := os.WriteFile(ckpt, b[:lastLine-10], 0o644); err != nil {
		t.Fatal(err)
	}
	for attempt, wantCalls := range []int64{2, 0} {
		var calls atomic.Int64
		res, err := Run(context.Background(), spec, Config{
			Workers: 2, Resolve: fakeResolver(&calls), CheckpointPath: ckpt, Resume: true,
		})
		if err != nil {
			t.Fatalf("resume %d: %v", attempt+1, err)
		}
		if calls.Load() != wantCalls {
			t.Fatalf("resume %d re-ran %d shards, want %d", attempt+1, calls.Load(), wantCalls)
		}
		if !bytes.Equal(mustJSON(t, full), mustJSON(t, res)) {
			t.Fatalf("resume %d result differs from clean run", attempt+1)
		}
	}
}

// TestFreshCampaignStartsFreshJournal: a campaign run without Resume
// replaces the checkpoint journal instead of appending to an older
// campaign's records, so resuming it later finds only its own. The
// sequence is the CLI's "-seeds 2", then "-seeds 3" and "-seeds 3
// -resume" on the same -json path.
func TestFreshCampaignStartsFreshJournal(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "out.json.ckpt.jsonl")
	two, three := testSpec(), testSpec()
	two.Seeds, three.Seeds = 2, 3
	if _, err := Run(context.Background(), two, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(context.Background(), three, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	resumed, err := Run(context.Background(), three, Config{
		Workers: 2, Resolve: fakeResolver(&calls), CheckpointPath: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after a fresh run: %v", err)
	}
	if calls.Load() != 0 || resumed.Resumed != len(three.Shards()) {
		t.Fatalf("resume re-ran %d shards and restored %d, want 0 and %d", calls.Load(), resumed.Resumed, len(three.Shards()))
	}
	if !bytes.Equal(mustJSON(t, fresh), mustJSON(t, resumed)) {
		t.Fatal("resumed result differs from the fresh run")
	}
}

// TestResumeRejectsForeignCheckpoint: a journal written by a different
// spec must not silently contaminate a campaign.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.jsonl")
	specA := testSpec()
	if _, err := Run(context.Background(), specA, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	specB := specA
	specB.BaseSeed = 43
	if _, err := Run(context.Background(), specB, Config{
		Workers: 2, Resolve: fakeResolver(nil), CheckpointPath: ckpt, Resume: true,
	}); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign checkpoint must be rejected, got err=%v", err)
	}
}

// TestResumeChecksJournalAgainstSpec: the drain checks every journaled
// shard against the spec's shard at its index, in both modes. A record
// naming another experiment is rejected; a record past the last shard
// is ignored rather than crashing the drain.
func TestResumeChecksJournalAgainstSpec(t *testing.T) {
	spec := testSpec()
	n := len(spec.Shards())
	for _, stream := range []bool{false, true} {
		clean, err := Run(context.Background(), spec, Config{Workers: 2, Resolve: fakeResolver(nil), Stream: stream})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()

		mismatched := filepath.Join(dir, "mismatched.jsonl")
		rec := testRecord(spec.Fingerprint(), 0)
		rec.Experiment = "beta" // the spec's shard 0 is alpha
		writeRecords(t, mismatched, rec)
		_, err = Run(context.Background(), spec, Config{
			Workers: 2, Resolve: fakeResolver(nil), Stream: stream, CheckpointPath: mismatched, Resume: true,
		})
		if err == nil || !strings.Contains(err.Error(), "spec says") {
			t.Fatalf("stream=%v: mismatched journal shard must be rejected, got err=%v", stream, err)
		}

		beyond := filepath.Join(dir, "beyond.jsonl")
		writeRecords(t, beyond, testRecord(spec.Fingerprint(), n))
		res, err := Run(context.Background(), spec, Config{
			Workers: 2, Resolve: fakeResolver(nil), Stream: stream, CheckpointPath: beyond, Resume: true,
		})
		if err != nil {
			t.Fatalf("stream=%v: out-of-range journal record: %v", stream, err)
		}
		if !bytes.Equal(mustJSON(t, clean), mustJSON(t, res)) {
			t.Fatalf("stream=%v: out-of-range journal record changed the result", stream)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	res := func(string) (RunnerFunc, bool) {
		return func(ctx context.Context, s Shard, log io.Writer) (Metrics, error) {
			started <- struct{}{}
			select {
			case <-release:
				return Metrics{"v": 1}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, true
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, testSpec(), Config{Workers: 2, Resolve: res})
		done <- err
	}()
	<-started
	cancel()
	close(release)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled campaign must return an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	spec := Spec{Experiments: []string{"bad-one"}, Seeds: 2, BaseSeed: 1}
	if _, err := Run(context.Background(), spec, Config{Workers: 1, Resolve: fakeResolver(nil)}); err == nil {
		t.Fatal("unresolvable experiment must be rejected before any shard runs")
	}
}

// TestShardLogsArePrefixedAndWhole: concurrent shard logs must come
// out line-atomic with the shard's prefix.
func TestShardLogsArePrefixedAndWhole(t *testing.T) {
	var buf bytes.Buffer
	mux := NewSyncWriter(&buf)
	const shards, lines = 16, 50
	doneCh := make(chan struct{}, shards)
	for i := 0; i < shards; i++ {
		go func(id int) {
			w := mux.Shard(fmt.Sprintf("s%02d", id))
			for j := 0; j < lines; j++ {
				// Write in fragments to exercise the line buffering.
				fmt.Fprintf(w, "shard %02d ", id)
				fmt.Fprintf(w, "line %02d", j)
				io.WriteString(w, " end\n")
			}
			w.(io.Closer).Close()
			doneCh <- struct{}{}
		}(i)
	}
	for i := 0; i < shards; i++ {
		<-doneCh
	}
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != shards*lines {
		t.Fatalf("got %d lines, want %d", len(got), shards*lines)
	}
	for _, line := range got {
		var sid, s2, l int
		if _, err := fmt.Sscanf(line, "[s%02d] shard %02d line %02d end", &sid, &s2, &l); err != nil {
			t.Fatalf("malformed multiplexed line %q: %v", line, err)
		}
		if sid != s2 {
			t.Fatalf("line %q carries the wrong prefix", line)
		}
	}
}

func TestSyncWriterFlushesPartialLineOnClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewSyncWriter(&buf).Shard("x")
	io.WriteString(w, "no newline")
	w.Close()
	if got := buf.String(); got != "[x] no newline\n" {
		t.Fatalf("got %q", got)
	}
}
