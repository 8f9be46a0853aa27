package campaign

import (
	"context"
	"fmt"
	"io"
	"maps"
	"runtime"
	"sync"
	"time"

	"memlife/internal/telemetry"
)

// Config parameterizes one campaign execution (everything about *how*
// to run; the Spec says *what* to run).
type Config struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. Worker
	// count affects wall-clock only, never results.
	Workers int
	// Resolve maps experiment names to runners.
	Resolve Resolver
	// CheckpointPath is the JSONL journal of completed shards; empty
	// disables checkpointing (and Resume). Without Resume a run
	// replaces any journal already there.
	CheckpointPath string
	// Resume loads previously journaled shards of the same spec from
	// CheckpointPath instead of re-running them.
	Resume bool
	// Reporter receives progress events; nil means no reporting.
	Reporter Reporter
	// Log receives the shards' experiment logs, multiplexed line-by-
	// line with shard prefixes; nil silences them.
	Log io.Writer
	// Stream selects constant-memory collection. Every campaign folds
	// its shards into per-metric accumulators (online mean/CI + quantile
	// sketches) in index order; a streaming one also bounds how far
	// dispatch runs ahead of that fold with a reorder window and keeps
	// no shard list, so memory is O(window + metrics x buckets) rather
	// than O(seeds). The Result then has empty Shards and its
	// Aggregates carry Quantiles; mean/std/ci95/min/max are the same
	// bits either way.
	Stream bool

	// testPending, when set, observes the reorder window's occupancy
	// after each fresh completion (test instrumentation for the memory
	// bound).
	testPending func(n int)
}

// ShardResult is one completed shard with its metrics.
type ShardResult struct {
	Shard
	Metrics Metrics `json:"metrics"`
}

// Result is a completed campaign. Its JSON form is canonical: shards
// ordered by index, aggregates ordered by (experiment, metric), and no
// timing or scheduling information — the same spec produces the same
// bytes whatever the worker count, completion order, or resume
// history. Streaming campaigns (Config.Stream) leave Shards empty and
// attach per-metric Quantiles; their other aggregate fields are
// bit-identical to a buffered campaign's.
type Result struct {
	Fingerprint string        `json:"fingerprint"`
	Spec        Spec          `json:"spec"`
	Shards      []ShardResult `json:"shards"`
	Aggregates  []Aggregate   `json:"aggregates"`
	// Resumed counts shards restored from the checkpoint rather than
	// executed; display bookkeeping, deliberately absent from JSON.
	Resumed int `json:"-"`
	// Elapsed is this execution's wall time; also absent from JSON.
	Elapsed time.Duration `json:"-"`
}

// Run executes the campaign. Shards run on a bounded worker pool; each
// completed shard is journaled immediately, so cancelling (ctx) or
// killing the process loses at most in-flight shards, and a later Run
// with Config.Resume picks up where this one stopped. The first shard
// error cancels the remaining work and is returned.
//
// Each execution emits one "campaign/run" trace span and feeds the
// campaign/* instruments (shard durations, busy workers, checkpoint
// fsync latency — see telemetry.go).
func Run(ctx context.Context, spec Spec, cfg Config) (*Result, error) {
	sp := telemetry.StartSpan("campaign/run")
	out, err := run(ctx, spec, cfg)
	attrs := telemetry.Attrs{"ok": err == nil}
	if out != nil {
		attrs["shards"] = len(out.Shards)
		attrs["resumed"] = out.Resumed
	}
	sp.End(attrs)
	return out, err
}

func run(ctx context.Context, spec Spec, cfg Config) (*Result, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("campaign: Config.Resolve is required")
	}
	runners := make(map[string]RunnerFunc, len(spec.Experiments))
	for _, exp := range spec.Experiments {
		r, ok := cfg.Resolve(exp)
		if !ok {
			return nil, fmt.Errorf("campaign: experiment %q is unknown or has no campaign metrics", exp)
		}
		runners[exp] = r
	}
	rep := cfg.Reporter
	if rep == nil {
		rep = NopReporter()
	}
	tel := newCampaignTel()

	fp := spec.Fingerprint()
	shards := spec.Shards()
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("campaign: Resume requires CheckpointPath")
	}
	done := map[int]ShardResult{}
	var jnl *journal
	if cfg.CheckpointPath != "" {
		var err error
		jnl, err = openCheckpoint(cfg.CheckpointPath, fp, cfg.Resume, done)
		if err != nil {
			return nil, err
		}
		jnl.fsyncNs = tel.fsyncNs
		defer jnl.Close()
	}
	tel.shardsResumed.Add(int64(len(done)))

	var pending []Shard
	for _, s := range shards {
		if _, ok := done[s.Index]; !ok {
			pending = append(pending, s)
		}
	}

	// Every shard, resumed or fresh, parks in pendingDone until the drain
	// pointer (next) reaches its index, then folds into agg in strict
	// index order, whatever the completion order. A buffered campaign
	// also keeps each drained shard in out.Shards; a streaming one keeps
	// none and takes a room token per dispatch, so dispatch runs at most
	// a window ahead of the drain pointer and pendingDone stays bounded.
	// (Resumed shards are preloaded; loadCheckpoint already held them in
	// memory, so they don't change the bound's character.)
	out := &Result{Fingerprint: fp, Spec: spec, Shards: []ShardResult{}}
	if !cfg.Stream {
		out.Shards = make([]ShardResult, 0, len(shards))
	}
	var (
		agg         = newAggregator()
		pendingDone = maps.Clone(done)
		next        int
		room        chan struct{}
	)
	drainLocked := func() error {
		for next < len(shards) {
			r, ok := pendingDone[next]
			if !ok {
				return nil
			}
			s := shards[next]
			if r.Experiment != s.Experiment || r.Seed != s.Seed {
				return fmt.Errorf("campaign: checkpoint shard %d is %s seed %d, spec says %s seed %d",
					next, r.Experiment, r.Seed, s.Experiment, s.Seed)
			}
			delete(pendingDone, next)
			agg.add(s.Experiment, r.Metrics)
			if !cfg.Stream {
				out.Shards = append(out.Shards, ShardResult{Shard: s, Metrics: r.Metrics})
			}
			if _, resumed := done[next]; !resumed && room != nil {
				<-room // release the window token taken at dispatch (never blocks)
			}
			next++
		}
		return nil
	}
	if err := drainLocked(); err != nil {
		return nil, err
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}
	if cfg.Stream {
		window := 4 * workers
		if window < 16 {
			window = 16
		}
		room = make(chan struct{}, window)
	}
	rep.CampaignStarted(len(shards), len(done), workers)

	var logMux *SyncWriter
	if cfg.Log != nil {
		logMux = NewSyncWriter(cfg.Log)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex // guards the drain state, firstErr, completed
		firstErr  error
		completed = len(done)
		total     = len(shards)
		wg        sync.WaitGroup
	)
	jobs := make(chan Shard)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for s := range jobs {
				if runCtx.Err() != nil {
					return
				}
				rep.ShardStarted(worker, s)
				tel.busyWorkers.Add(1)
				var shardLog io.Writer = io.Discard
				var closer io.Closer
				if logMux != nil {
					lw := logMux.Shard(s.Label())
					shardLog, closer = lw, lw
				}
				t0 := time.Now()
				m, err := runners[s.Experiment](runCtx, s, shardLog)
				if closer != nil {
					closer.Close()
				}
				tel.busyWorkers.Add(-1)
				if err != nil {
					fail(fmt.Errorf("campaign: shard %s (seed %d): %w", s.Label(), s.Seed, err))
					return
				}
				elapsed := time.Since(t0)
				tel.shardNs.Observe(float64(elapsed))
				tel.shardsDone.Inc()
				if jnl != nil {
					err := jnl.append(checkpointRecord{
						Fingerprint: fp,
						Index:       s.Index,
						Experiment:  s.Experiment,
						SeedIndex:   s.SeedIndex,
						Seed:        s.Seed,
						Metrics:     m,
						ElapsedMS:   elapsed.Milliseconds(),
					})
					if err != nil {
						fail(err)
						return
					}
				}
				mu.Lock()
				pendingDone[s.Index] = ShardResult{Shard: s, Metrics: m}
				if cfg.testPending != nil {
					cfg.testPending(len(pendingDone))
				}
				if err := drainLocked(); err != nil {
					mu.Unlock()
					fail(err)
					return
				}
				completed++
				doneN := completed
				mu.Unlock()
				var eta time.Duration
				if ran := doneN - len(done); ran > 0 {
					eta = time.Since(start) / time.Duration(ran) * time.Duration(total-doneN)
				}
				rep.ShardDone(worker, s, elapsed, doneN, total, eta)
			}
		}(w)
	}
feed:
	for _, s := range pending {
		if room != nil {
			// Take a window token before dispatch; the drain returns it
			// once this shard folds into the aggregator in index order.
			select {
			case room <- struct{}{}:
			case <-runCtx.Done():
				break feed
			}
		}
		select {
		case jobs <- s:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: interrupted (completed shards are checkpointed): %w", err)
	}

	if next != len(shards) {
		return nil, fmt.Errorf("campaign: shard %d missing after run (corrupt checkpoint?)", next)
	}
	out.Aggregates = agg.aggregates(cfg.Stream)
	out.Resumed = len(shards) - len(pending)
	out.Elapsed = time.Since(start)
	rep.CampaignDone(out.Elapsed)
	return out, nil
}
