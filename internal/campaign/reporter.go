package campaign

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// logReporter renders campaign progress events as one-line messages,
// tracking per-worker state so every line shows what the pool is
// doing. It is safe for concurrent use: shard events arrive from
// worker goroutines. It exists for display only — nothing it observes
// (timings, worker ids, completion order) feeds back into campaign
// results.
type logReporter struct {
	mu      sync.Mutex
	w       io.Writer
	start   time.Time
	working map[int]string // worker -> shard label
}

func newLogReporter(w io.Writer) *logReporter {
	return &logReporter{w: w, working: make(map[int]string)}
}

// CampaignStarted fires once: total shards in the spec, how many were
// restored from the checkpoint, and the worker count.
func (r *logReporter) CampaignStarted(total, resumed, workers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start = time.Now()
	fmt.Fprintf(r.w, "campaign: %d shards (%d from checkpoint), %d workers\n", total, resumed, workers)
}

// ShardStarted fires when a worker picks up a shard.
func (r *logReporter) ShardStarted(worker int, s Shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.working[worker] = s.Label()
	fmt.Fprintf(r.w, "campaign: w%d -> %s (seed %d)\n", worker, s.Label(), s.Seed)
}

// ShardDone fires when a shard completes: its wall time, overall
// progress, and the ETA estimated from completed-shard throughput
// (zero until the first completion).
func (r *logReporter) ShardDone(worker int, s Shard, elapsed time.Duration, done, total int, eta time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.working, worker)
	line := fmt.Sprintf("campaign: %d/%d done (%s in %s", done, total, s.Label(), elapsed.Round(time.Millisecond))
	switch {
	case eta > 0 && done < total:
		line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	case done < total:
		// Zero-completed-shards window (e.g. every finished shard so
		// far came from the checkpoint): no throughput sample exists
		// yet, so say so instead of printing a meaningless value.
		line += ", eta estimating..."
	}
	line += ")"
	if len(r.working) > 0 {
		ids := make([]int, 0, len(r.working))
		for w := range r.working {
			ids = append(ids, w)
		}
		sort.Ints(ids)
		line += " busy:"
		for _, w := range ids {
			line += fmt.Sprintf(" w%d=%s", w, r.working[w])
		}
	}
	fmt.Fprintln(r.w, line)
}

// CampaignDone fires once after the last shard.
func (r *logReporter) CampaignDone(elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.w, "campaign: finished in %s\n", elapsed.Round(time.Millisecond))
}
