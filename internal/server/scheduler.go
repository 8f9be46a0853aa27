package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Runner executes one job and returns its result document (the bytes
// the store will serve). Runners must be deterministic functions of
// the job — the crash-safety contract "resumed result is byte-identical
// to an uninterrupted run" is only as strong as this property — and
// must return promptly once ctx is cancelled (a drain), leaving any
// partial progress in the job's checkpoint journal. A job runs once:
// any error but that cancellation settles it failed, since a
// deterministic run would fail the same way again, and only a resubmit
// runs it again (resuming that checkpoint).
type Runner func(ctx context.Context, job Job) ([]byte, error)

// scheduler drives the worker pool: dequeue, execute once, settle
// (store + journal). Drain is two-phase: first stop dequeuing and give
// in-flight jobs a grace period to finish, then cancel their contexts
// so they checkpoint and return.
type scheduler struct {
	q       *queue
	st      *store
	run     Runner
	workers int
	tel     *serverTel
	log     io.Writer

	stop       chan struct{} // closed: workers exit once idle
	jobsCtx    context.Context
	cancelJobs context.CancelFunc
	wg         sync.WaitGroup
}

func newScheduler(q *queue, st *store, run Runner, workers int, tel *serverTel, log io.Writer) *scheduler {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &scheduler{
		q: q, st: st, run: run, workers: workers, tel: tel, log: log,
		stop: make(chan struct{}), jobsCtx: ctx, cancelJobs: cancel,
	}
}

// Start launches the worker pool.
func (s *scheduler) Start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				job, ok := s.q.Dequeue(s.stop)
				if !ok {
					return
				}
				s.tel.observeDepth(s.q)
				s.execute(job)
				s.tel.observeDepth(s.q)
			}
		}()
	}
}

// execute runs one dequeued job to a terminal state (or requeues it on
// drain). Settle order is store-then-journal: a crash between Put and
// MarkDone leaves the job queued with its result already stored, which
// the recovery fast path below turns into an instant MarkDone on the
// next boot — never a lost result, never a re-run of finished work.
func (s *scheduler) execute(job Job) {
	if s.st.Has(job.ID) {
		// Recovery fast path: result landed before a crash cut off the
		// terminal journal record.
		s.settleDone(job, 0)
		return
	}
	t0 := time.Now()
	data, err := s.run(s.jobsCtx, job)
	if err != nil {
		if s.jobsCtx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Drain, not failure: the job's submit record is durable and
			// its checkpoint holds completed shards; requeue in memory so
			// status reads "queued", and let the next boot resume it.
			s.q.Requeue(job.ID)
			s.logf("job %s: drained to checkpoint", job.ID)
			return
		}
		s.settleFailed(job, err)
		return
	}
	if err := s.st.Put(job.ID, data); err != nil {
		s.settleFailed(job, fmt.Errorf("storing result: %w", err))
		return
	}
	s.settleDone(job, time.Since(t0))
}

func (s *scheduler) settleDone(job Job, elapsed time.Duration) {
	if err := s.q.MarkDone(job.ID); err != nil {
		// The result is stored; only the journal record is missing. The
		// recovery fast path repairs this on the next boot.
		s.logf("job %s: result stored but journal append failed: %v", job.ID, err)
	}
	if err := s.st.RemoveCkpt(job.ID); err != nil {
		s.logf("job %s: %v", job.ID, err)
	}
	s.tel.jobsDone.Inc()
	if elapsed > 0 {
		s.tel.jobNs.Observe(float64(elapsed))
	}
	s.logf("job %s: done", job.ID)
}

func (s *scheduler) settleFailed(job Job, cause error) {
	if err := s.q.MarkFailed(job.ID, cause.Error()); err != nil {
		s.logf("job %s: failure journal append failed: %v", job.ID, err)
	}
	s.tel.jobsFailed.Inc()
	s.logf("job %s: failed: %v", job.ID, cause)
}

// Drain stops the pool gracefully: no new dequeues, in-flight jobs get
// up to grace to finish, then their contexts are cancelled (they
// checkpoint and requeue). Returns once every worker has exited.
func (s *scheduler) Drain(grace time.Duration) {
	close(s.stop)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
	s.cancelJobs()
	<-done
}

func (s *scheduler) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, "memlife serve: "+format+"\n", args...)
	}
}
