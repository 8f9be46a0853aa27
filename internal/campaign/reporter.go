package campaign

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Reporter receives campaign progress events. Implementations must be
// safe for concurrent use: shard events arrive from worker goroutines.
// Reporters exist for display only — nothing they observe (timings,
// worker ids, completion order) feeds back into campaign results.
type Reporter interface {
	// CampaignStarted fires once: total shards in the spec, how many
	// were restored from the checkpoint, and the worker count.
	CampaignStarted(total, resumed, workers int)
	// ShardStarted fires when a worker picks up a shard.
	ShardStarted(worker int, s Shard)
	// ShardDone fires when a shard completes: its wall time, overall
	// progress, and the ETA estimated from completed-shard throughput
	// (zero until the first completion).
	ShardDone(worker int, s Shard, elapsed time.Duration, done, total int, eta time.Duration)
	// CampaignDone fires once after the last shard.
	CampaignDone(elapsed time.Duration)
}

type nopReporter struct{}

func (nopReporter) CampaignStarted(int, int, int)                                {}
func (nopReporter) ShardStarted(int, Shard)                                      {}
func (nopReporter) ShardDone(int, Shard, time.Duration, int, int, time.Duration) {}
func (nopReporter) CampaignDone(time.Duration)                                   {}

// NopReporter returns a reporter that discards every event.
func NopReporter() Reporter { return nopReporter{} }

// logReporter renders events as one-line progress messages, tracking
// per-worker state so every line shows what the pool is doing.
type logReporter struct {
	mu      sync.Mutex
	w       io.Writer
	start   time.Time
	working map[int]string // worker -> shard label
}

// NewLogReporter returns a Reporter that writes one-line progress
// events (shards done, ETA, per-worker state) to w.
func NewLogReporter(w io.Writer) Reporter {
	return &logReporter{w: w, working: make(map[int]string)}
}

func (r *logReporter) CampaignStarted(total, resumed, workers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start = time.Now()
	fmt.Fprintf(r.w, "campaign: %d shards (%d from checkpoint), %d workers\n", total, resumed, workers)
}

func (r *logReporter) ShardStarted(worker int, s Shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.working[worker] = s.Label()
	fmt.Fprintf(r.w, "campaign: w%d -> %s (seed %d)\n", worker, s.Label(), s.Seed)
}

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

func (r *logReporter) CampaignDone(elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.w, "campaign: finished in %s\n", elapsed.Round(time.Millisecond))
}
