package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"memlife/internal/campaign"
)

// JobState is the lifecycle state of a submitted job.
//
// The durable state machine (journal ops in parentheses):
//
//	          (submit)            (done)
//	queued ───────────► running ─────────► done
//	  ▲                    │   (failed)
//	  │   crash / drain    ├─────────────► failed ──(submit)──► queued
//	  └────────────────────┘
//
// Only submit/done/failed transitions are journaled; "running" is
// in-memory, so a crash reverts every in-flight job to queued and the
// next boot re-runs it (resuming its campaign checkpoint).
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one accepted unit of work: a resolved scenario spec plus its
// Monte Carlo sample size, identified by the content-addressed key
// spec.JobFingerprint(seeds).
type Job struct {
	// ID is the job's content-addressed key (and its result store key).
	ID string `json:"id"`
	// Spec is the canonical resolved scenario spec.
	Spec json.RawMessage `json:"spec"`
	// Seeds is the Monte Carlo sample size (>= 1).
	Seeds int `json:"seeds"`
	// State is the current lifecycle state.
	State JobState `json:"state"`
	// Error holds the terminal failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Attempts counts execution attempts (including retries).
	Attempts int `json:"attempts,omitempty"`
}

// queueRecord is one line of the job journal.
type queueRecord struct {
	Op    string          `json:"op"` // "submit", "done" or "failed"
	ID    string          `json:"id"`
	Seeds int             `json:"seeds,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Error string          `json:"error,omitempty"`
}

// errQueueFull rejects a submit when the bounded queue is at capacity;
// the API layer translates it into 429 + Retry-After.
var errQueueFull = errors.New("server: job queue is full")

// queue is the durable bounded job queue. Accepted jobs are journaled
// (write + fsync) *before* Submit returns, so an ACKed job survives a
// SIGKILL at any point; terminal transitions (done/failed) are
// journaled the same way. Opening a queue replays the journal: jobs
// with a submit but no terminal record — including jobs that were
// mid-run when the process died — come back as queued.
type queue struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	pending []string // FIFO of queued job ids
	cap     int
	j       *campaign.Journal
	notify  chan struct{}
	failed  chan struct{} // closed at the first failed append, after err is set
	err     error         // that failure: the daemon stops taking jobs and drains
}

// openQueue replays the journal at path and opens it for appending.
// A torn final line (killed mid-append) is discarded, and cut from the
// file before the first append: the submit it recorded was never
// ACKed, the terminal transition it recorded will simply re-run its
// job.
func openQueue(path string, capacity int) (*queue, error) {
	q := &queue{
		jobs:   make(map[string]*Job),
		cap:    capacity,
		notify: make(chan struct{}, 1),
		failed: make(chan struct{}),
	}
	j, err := campaign.OpenJournal(campaign.OSFiles{}, path, q.replayer(path))
	if err != nil {
		return nil, err
	}
	q.j = j
	return q, nil
}

// replayer returns the journal callback that applies each record of
// the job journal at path, in journal order.
func (q *queue) replayer(path string) func(line int, raw []byte) error {
	return func(line int, raw []byte) error {
		var rec queueRecord
		err := json.Unmarshal(raw, &rec)
		if err == nil {
			err = q.apply(rec)
		}
		if err != nil {
			return fmt.Errorf("server: job journal %s line %d: %w", path, line, err)
		}
		return nil
	}
}

// apply applies one journal record to the in-memory state: submit
// enqueues (or re-enqueues a terminal job), done/failed settle. Unknown
// ops and terminal records for unknown jobs are corruption — the
// journal is written only by this package.
func (q *queue) apply(rec queueRecord) error {
	switch rec.Op {
	case "submit":
		if !validKey(rec.ID) || rec.Seeds < 1 || len(rec.Spec) == 0 {
			return errors.New("malformed submit record")
		}
		j, ok := q.jobs[rec.ID]
		if ok && (j.State == JobQueued || j.State == JobRunning) {
			return nil // duplicate submit of a live job: no-op
		}
		q.jobs[rec.ID] = &Job{ID: rec.ID, Spec: rec.Spec, Seeds: rec.Seeds, State: JobQueued}
		q.pending = append(q.pending, rec.ID)
		return nil
	case "done", "failed":
		j, ok := q.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("%s for unknown job %s", rec.Op, rec.ID)
		}
		q.unqueue(rec.ID)
		if rec.Op == "done" {
			j.State = JobDone
			j.Error = ""
		} else {
			j.State = JobFailed
			j.Error = rec.Error
		}
		return nil
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// unqueue removes id from the pending FIFO (no-op when absent).
func (q *queue) unqueue(id string) {
	for i, p := range q.pending {
		if p == id {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// record journals rec durably, then applies it; callers hold q.mu. The
// first journal failure stops the queue for good.
func (q *queue) record(rec queueRecord) error {
	if err := q.j.Append(rec); err != nil {
		if q.err == nil {
			q.err = err
			close(q.failed)
		}
		return fmt.Errorf("server: journal job %s: %w", rec.ID, err)
	}
	return q.apply(rec)
}

// Submit accepts (or dedupes) a job. The returned snapshot reflects
// the job after the call; created reports whether a new queue entry
// was made (false: the submission deduped onto a live or settled job).
// New entries are journaled and fsynced before Submit returns — the
// durable-before-ACK contract.
func (q *queue) Submit(id string, spec json.RawMessage, seeds int) (job Job, created bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		switch j.State {
		case JobQueued, JobRunning, JobDone:
			// Live or already served: dedupe, nothing to journal.
			return *j, false, nil
		case JobFailed:
			// Terminal failure: an explicit resubmit re-queues it.
		}
	}
	if q.liveCount() >= q.cap {
		return Job{}, false, errQueueFull
	}
	if err := q.record(queueRecord{Op: "submit", ID: id, Seeds: seeds, Spec: spec}); err != nil {
		return Job{}, false, err
	}
	q.wake()
	return *q.jobs[id], true, nil
}

// liveCount is the number of jobs consuming queue capacity; callers
// hold q.mu.
func (q *queue) liveCount() int {
	n := 0
	for _, j := range q.jobs {
		if j.State == JobQueued || j.State == JobRunning {
			n++
		}
	}
	return n
}

func (q *queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Dequeue pops the oldest queued job and marks it running, blocking
// until one is available or stop closes. ok=false means the queue is
// stopping. A closed stop wins over pending work — a draining worker
// must not pick up the very job it just requeued.
func (q *queue) Dequeue(stop <-chan struct{}) (Job, bool) {
	for {
		select {
		case <-stop:
			return Job{}, false
		default:
		}
		q.mu.Lock()
		if len(q.pending) > 0 {
			id := q.pending[0]
			q.pending = q.pending[1:]
			j := q.jobs[id]
			j.State = JobRunning
			job := *j
			q.mu.Unlock()
			return job, true
		}
		q.mu.Unlock()
		select {
		case <-q.notify:
		case <-stop:
			return Job{}, false
		}
	}
}

// MarkDone settles a job as done, journaling the transition durably.
func (q *queue) MarkDone(id string) error {
	return q.settle(queueRecord{Op: "done", ID: id})
}

// MarkFailed settles a job as failed (retry budget exhausted),
// journaling the transition durably.
func (q *queue) MarkFailed(id, msg string) error {
	return q.settle(queueRecord{Op: "failed", ID: id, Error: msg})
}

// settle records a terminal transition.
func (q *queue) settle(rec queueRecord) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.record(rec)
}

// Requeue puts a drained in-flight job back at the head of the queue,
// in memory only: its submit record is already durable, so after a
// restart it would be queued anyway — this mirrors that state without
// another journal write.
func (q *queue) Requeue(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.State != JobRunning {
		return
	}
	j.State = JobQueued
	q.pending = append([]string{id}, q.pending...)
	q.wake()
}

// NoteAttempt bumps a job's execution-attempt counter (display
// bookkeeping; never journaled).
func (q *queue) NoteAttempt(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		j.Attempts++
	}
}

// Get returns a snapshot of one job.
func (q *queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns snapshots of every known job, unordered.
func (q *queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	return out
}

// CountsByState returns how many known jobs sit in each lifecycle
// state. Unlike the server/jobs_done and server/jobs_failed event
// counters, these reflect the current job table — including terminal
// states replayed from the journal at startup.
func (q *queue) CountsByState() (queued, running, done, failed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch j.State {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		case JobDone:
			done++
		case JobFailed:
			failed++
		}
	}
	return
}

// Close closes the journal.
func (q *queue) Close() error {
	return q.j.Close()
}
