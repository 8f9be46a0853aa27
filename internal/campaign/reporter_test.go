package campaign

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func shardFor(idx int, exp string, seedIdx int) Shard {
	return Shard{Index: idx, Experiment: exp, SeedIndex: seedIdx, Seed: ShardSeed(42, idx)}
}

// TestLogReporterLifecycle drives the log reporter through a small
// campaign and pins the rendered lines: start banner, per-worker
// pickup, progress with ETA while shards remain, ETA suppressed on the
// final shard, and the busy-worker list sorted by worker id.
func TestLogReporterLifecycle(t *testing.T) {
	var buf bytes.Buffer
	r := newLogReporter(&buf)

	sA := shardFor(0, "alpha", 0)
	sB := shardFor(1, "alpha", 1)
	sC := shardFor(2, "beta", 0)

	r.CampaignStarted(3, 1, 2)
	r.ShardStarted(1, sB)
	r.ShardStarted(0, sA)
	r.ShardDone(1, sB, 120*time.Millisecond, 1, 3, 5*time.Second)
	r.ShardStarted(1, sC)
	r.ShardDone(0, sA, 90*time.Millisecond, 2, 3, 2*time.Second)
	r.ShardDone(1, sC, 80*time.Millisecond, 3, 3, time.Second)
	r.CampaignDone(300 * time.Millisecond)

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("want 8 lines, got %d:\n%s", len(lines), buf.String())
	}
	if want := "campaign: 3 shards (1 from checkpoint), 2 workers"; lines[0] != want {
		t.Fatalf("start line = %q, want %q", lines[0], want)
	}
	if !strings.Contains(lines[1], "w1 -> alpha#1") || !strings.Contains(lines[1], "seed ") {
		t.Fatalf("pickup line = %q, want worker, label, and seed", lines[1])
	}

	// First completion: progress, elapsed, ETA, and the still-busy w0.
	done1 := lines[3]
	if !strings.Contains(done1, "1/3 done (alpha#1 in 120ms") {
		t.Fatalf("first done line = %q, want progress and elapsed", done1)
	}
	if !strings.Contains(done1, "eta 5s") {
		t.Fatalf("first done line = %q, want eta while shards remain", done1)
	}
	if !strings.Contains(done1, "busy: w0=alpha#0") {
		t.Fatalf("first done line = %q, want busy list with w0", done1)
	}
	if strings.Contains(done1, "w1=") {
		t.Fatalf("first done line = %q: finished worker must leave the busy list", done1)
	}

	// Final completion: pool empty, ETA suppressed (done == total).
	doneLast := lines[6]
	if !strings.Contains(doneLast, "3/3 done") {
		t.Fatalf("final done line = %q, want 3/3", doneLast)
	}
	if strings.Contains(doneLast, ", eta ") {
		t.Fatalf("final done line = %q: eta must be suppressed once done == total", doneLast)
	}
	if strings.Contains(doneLast, "busy:") {
		t.Fatalf("final done line = %q: busy list must be absent when the pool is idle", doneLast)
	}
	if want := "campaign: finished in 300ms"; lines[7] != want {
		t.Fatalf("finish line = %q, want %q", lines[7], want)
	}
}

// TestLogReporterZeroETAEstimating: before the first completion feeds
// the throughput estimate, ShardDone receives eta == 0 and must report
// "eta estimating..." — never a bogus "eta 0s".
func TestLogReporterZeroETAEstimating(t *testing.T) {
	var buf bytes.Buffer
	r := newLogReporter(&buf)
	r.CampaignStarted(2, 0, 1)
	r.ShardDone(0, shardFor(0, "alpha", 0), 50*time.Millisecond, 1, 2, 0)
	out := buf.String()
	if !strings.Contains(out, "eta estimating...") {
		t.Fatalf("zero eta with work remaining must print the estimating marker, got:\n%s", out)
	}
	if strings.Contains(out, "eta 0s") {
		t.Fatalf("zero eta must never render as a duration, got:\n%s", out)
	}
}

// TestLogReporterZeroETAFinalShard: when the campaign is finished
// (done == total) there is nothing left to estimate — neither an eta
// nor the estimating marker may appear.
func TestLogReporterZeroETAFinalShard(t *testing.T) {
	var buf bytes.Buffer
	r := newLogReporter(&buf)
	r.CampaignStarted(1, 0, 1)
	r.ShardDone(0, shardFor(0, "alpha", 0), 50*time.Millisecond, 1, 1, 0)
	if out := buf.String(); strings.Contains(out, "eta") {
		t.Fatalf("final shard must not print any eta, got:\n%s", out)
	}
}

// TestLogReporterBusyListSorted: the busy suffix must list workers in
// ascending id order regardless of pickup order, so logs are stable
// and diffable.
func TestLogReporterBusyListSorted(t *testing.T) {
	var buf bytes.Buffer
	r := newLogReporter(&buf)
	r.CampaignStarted(5, 0, 4)
	r.ShardStarted(3, shardFor(3, "beta", 1))
	r.ShardStarted(0, shardFor(0, "alpha", 0))
	r.ShardStarted(2, shardFor(2, "beta", 0))
	buf.Reset()
	r.ShardDone(2, shardFor(2, "beta", 0), time.Millisecond, 1, 5, 0)
	line := buf.String()
	i0 := strings.Index(line, "w0=alpha#0")
	i3 := strings.Index(line, "w3=beta#1")
	if i0 < 0 || i3 < 0 || i0 > i3 {
		t.Fatalf("busy list must be sorted by worker id, got %q", line)
	}
}

// TestLogReporterConcurrentEvents hammers one reporter from many
// goroutines; run under -race this pins the documented requirement
// that reporters tolerate concurrent shard events, and afterwards
// every emitted line must be whole (exactly one "campaign:" prefix).
func TestLogReporterConcurrentEvents(t *testing.T) {
	var buf bytes.Buffer
	r := newLogReporter(&buf)
	r.CampaignStarted(64, 0, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s := shardFor(w*8+i, "alpha", w*8+i)
				r.ShardStarted(w, s)
				r.ShardDone(w, s, time.Millisecond, w*8+i+1, 64, time.Second)
			}
		}(w)
	}
	wg.Wait()
	r.CampaignDone(time.Second)
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.Count(line, "campaign:") != 1 || !strings.HasPrefix(line, "campaign:") {
			t.Fatalf("line %d mangled under contention: %q", i, line)
		}
	}
}
