package server

import "memlife/internal/telemetry"

// serverTel holds the daemon's telemetry handles, resolved once from
// the global registry (all-nil when telemetry is disabled — every
// method below is then a no-op). All of it is service observability;
// nothing feeds back into job results.
type serverTel struct {
	jobsSubmitted *telemetry.Counter // accepted (journaled) submissions
	jobsDeduped   *telemetry.Counter // submissions joined onto a live job
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsRetried   *telemetry.Counter // execution retries after transient failures
	jobsRejected  *telemetry.Counter // 429 backpressure rejections
	cacheHits     *telemetry.Counter // submissions served from the result store
	cacheMisses   *telemetry.Counter // submissions that had to run
	queueDepth    *telemetry.Gauge
	runningJobs   *telemetry.Gauge
	stateDone     *telemetry.Gauge     // jobs currently terminal-done in the job table
	stateFailed   *telemetry.Gauge     // jobs currently terminal-failed in the job table
	jobNs         *telemetry.Histogram // per-job wall time (success only)
	drainNs       *telemetry.Gauge     // duration of the last graceful drain
}

func newServerTel() *serverTel {
	r := telemetry.Global()
	if r == nil {
		return &serverTel{}
	}
	return &serverTel{
		jobsSubmitted: r.Counter("server/jobs_submitted"),
		jobsDeduped:   r.Counter("server/jobs_deduped"),
		jobsDone:      r.Counter("server/jobs_done"),
		jobsFailed:    r.Counter("server/jobs_failed"),
		jobsRetried:   r.Counter("server/jobs_retried"),
		jobsRejected:  r.Counter("server/jobs_rejected"),
		cacheHits:     r.Counter("server/cache_hits"),
		cacheMisses:   r.Counter("server/cache_misses"),
		queueDepth:    r.Gauge("server/queue_depth"),
		runningJobs:   r.Gauge("server/running_jobs"),
		stateDone:     r.Gauge("server/jobs_state_done"),
		stateFailed:   r.Gauge("server/jobs_state_failed"),
		jobNs:         r.Histogram("server/job_ns", telemetry.NsBounds()),
		drainNs:       r.Gauge("server/drain_ns"),
	}
}

// observeDepth publishes the queue's current per-state gauges.
func (t *serverTel) observeDepth(q *queue) {
	queued, running, done, failed := q.CountsByState()
	t.queueDepth.Set(float64(queued))
	t.runningJobs.Set(float64(running))
	t.stateDone.Set(float64(done))
	t.stateFailed.Set(float64(failed))
}
