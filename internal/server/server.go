// Package server is the "lifetime as a service" daemon behind
// `memlife serve`: a long-running HTTP/JSON service that accepts
// scenario specs, runs them through the campaign engine on a worker
// pool, and serves results from a content-addressed store keyed by the
// spec fingerprint — so duplicate submissions are instant cache hits
// and a crash at any instant loses no accepted job.
//
// Durability contract (proven by the crash tests and `memlife doctor`):
//
//   - a job is journaled (write + fsync) before its submission is
//     ACKed; SIGKILL after the ACK never loses it;
//   - in-flight progress lives in a per-job campaign checkpoint; a
//     restarted daemon resumes it and produces a result byte-identical
//     to an uninterrupted run;
//   - results are written temp-then-rename; readers and crashes see a
//     whole document or nothing;
//   - a failed journal or store write is permanent, never retried
//     (see campaign.Journal): after a job-journal failure submissions
//     get 503 and Run drains and returns the error;
//   - one flock'd writer per store directory — a second daemon (or a
//     concurrent CLI resume pointed at the store) fails fast.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"memlife/internal/retry"
)

// Config parameterizes one daemon.
type Config struct {
	// Dir is the store directory (journal, results, checkpoints, lock).
	Dir string
	// Addr is the listen address (host:port; ":0" picks a free port).
	Addr string
	// JobWorkers bounds concurrently running jobs; <= 0 means 1.
	JobWorkers int
	// ShardWorkers bounds the campaign worker pool inside each job;
	// <= 0 means GOMAXPROCS (see campaign.Config.Workers).
	ShardWorkers int
	// QueueCap bounds queued+running jobs; submissions beyond it get
	// 429 + Retry-After. <= 0 means 64.
	QueueCap int
	// Retry is the per-job execution retry budget. MaxAttempts <= 0 means
	// 3; BaseDelay <= 0 means 500ms..30s capped backoff, 50% jitter, seed 1.
	Retry retry.Policy
	// DrainGrace is how long Drain waits for in-flight jobs before
	// cancelling them to their checkpoints; <= 0 means 5s.
	DrainGrace time.Duration
	// Log receives service progress lines; nil silences them.
	Log io.Writer
	// Runner overrides the job runner (tests); nil means the production
	// scenario-campaign runner.
	Runner Runner
}

func (c Config) withDefaults() Config {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay, c.Retry.MaxDelay, c.Retry.Jitter, c.Retry.Seed = 500*time.Millisecond, 30*time.Second, 0.5, 1
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	return c
}

// Server is one running daemon over one locked store directory.
type Server struct {
	cfg   Config
	lock  *dirLock
	store *store
	queue *queue
	sched *scheduler
	tel   *serverTel

	httpSrv  *http.Server
	ln       net.Listener
	draining chan struct{} // closed when drain starts (healthz flips)
}

// New opens the store (creating it if needed), takes the single-writer
// lock, replays the job journal, and binds the listen address. Nothing
// runs until Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	lock, err := acquireLock(cfg.Dir)
	if err != nil {
		return nil, err
	}
	q, err := openQueue(st.queuePath(), cfg.QueueCap)
	if err != nil {
		lock.Release()
		return nil, err
	}
	tel := newServerTel()
	run := cfg.Runner
	if run == nil {
		run = scenarioRunner(st, cfg.ShardWorkers, cfg.Log)
	}
	s := &Server{
		cfg:      cfg,
		lock:     lock,
		store:    st,
		queue:    q,
		tel:      tel,
		sched:    newScheduler(q, st, run, cfg.JobWorkers, cfg.Retry, tel, cfg.Log),
		draining: make(chan struct{}),
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.releaseAll()
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	tel.observeDepth(q)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Start launches the scheduler workers and the HTTP listener.
func (s *Server) Start() {
	s.sched.Start()
	go s.httpSrv.Serve(s.ln) //nolint:errcheck // always ErrServerClosed after Drain
	s.logf("serving on http://%s (store %s, %d job worker(s), queue cap %d)",
		s.Addr(), s.cfg.Dir, s.cfg.JobWorkers, s.cfg.QueueCap)
}

// Run serves until ctx is cancelled or the job journal fails, then
// drains — the whole graceful lifecycle in one call. It returns the
// journal failure if there was one, else the drain error.
func (s *Server) Run(ctx context.Context) error {
	s.Start()
	select {
	case <-ctx.Done():
	case <-s.queue.failed:
		s.logf("job journal failed, draining: %v", s.queue.err)
	}
	err := s.Drain()
	select {
	case <-s.queue.failed:
		return fmt.Errorf("server: job journal failed: %w", s.queue.err)
	default:
		return err
	}
}

// Drain is the graceful shutdown: stop accepting HTTP traffic, give
// in-flight jobs the configured grace to finish, cancel the rest to
// their checkpoints, journal everything, release the lock. After Drain
// the store contains no partial files and a fresh daemon (or doctor)
// can take over immediately.
func (s *Server) Drain() error {
	t0 := time.Now()
	select {
	case <-s.draining:
		return nil // already drained
	default:
	}
	close(s.draining)
	s.logf("draining: stopping intake, waiting up to %s for in-flight jobs", s.cfg.DrainGrace)

	httpCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(httpCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = nil // slow clients are not a drain failure
	}
	s.sched.Drain(s.cfg.DrainGrace)
	if cerr := s.queue.Close(); err == nil {
		err = cerr
	}
	if lerr := s.lock.Release(); err == nil {
		err = lerr
	}
	s.tel.drainNs.Set(float64(time.Since(t0)))
	s.logf("drained in %s", time.Since(t0).Round(time.Millisecond))
	return err
}

// releaseAll tears down a partially constructed server (New failures).
func (s *Server) releaseAll() {
	if s.queue != nil {
		s.queue.Close()
	}
	s.lock.Release()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "memlife serve: "+format+"\n", args...)
	}
}
