package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"memlife/internal/spec"
	"memlife/internal/telemetry"
)

// maxSpecBytes bounds a submitted scenario document.
const maxSpecBytes = 4 << 20

// maxSeeds bounds a job's Monte Carlo sample size.
const maxSeeds = 4096

// retryAfter is the backpressure hint sent with 429, in seconds.
const retryAfter = "2"

// jobEnvelope is the API's job representation.
type jobEnvelope struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Seeds int    `json:"seeds"`
	// Cached is true when a submission was served straight from the
	// content-addressed store without enqueueing anything.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// ResultURL points at the stored result document once the job is
	// done.
	ResultURL string `json:"result_url,omitempty"`
}

func envelope(j Job, cached bool) jobEnvelope {
	e := jobEnvelope{
		ID:     j.ID,
		State:  string(j.State),
		Seeds:  j.Seeds,
		Cached: cached,
		Error:  j.Error,
	}
	if j.State == JobDone {
		e.ResultURL = "/v1/results/" + j.ID
	}
	return e
}

// handler builds the daemon's HTTP API:
//
//	POST /v1/jobs          submit a scenario spec (?seeds=N); 200 cache
//	                       hit, 202 accepted, 400 invalid, 429 full,
//	                       503 job journal failed
//	GET  /v1/jobs          list known jobs
//	GET  /v1/jobs/{id}     one job's status
//	GET  /v1/results/{id}  stored result document
//	GET  /healthz          "ok" (serving) / 503 "draining"
//	GET  /metrics/json     live telemetry snapshot
//	     /debug/pprof/*    profiles
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/results/{id}", s.handleGetResult)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		select {
		case <-s.draining:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	mux.Handle("GET /metrics/json", telemetry.MetricsHandler(telemetry.Global()))
	telemetry.AddPprofHandlers(mux)
	return mux
}

// handleSubmit is the intake path: resolve and validate the submitted
// spec, key it, serve a store hit instantly, otherwise journal-then-ACK
// (202), push back (429 + Retry-After), or refuse (503) once the job
// journal has failed.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		apiError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(raw) > maxSpecBytes {
		apiError(w, http.StatusRequestEntityTooLarge, "scenario document exceeds 4MiB")
		return
	}
	seeds := 1
	if v := r.URL.Query().Get("seeds"); v != "" {
		seeds, err = strconv.Atoi(v)
		if err != nil || seeds < 1 || seeds > maxSeeds {
			apiError(w, http.StatusBadRequest, fmt.Sprintf("seeds must be an integer in [1,%d]", maxSeeds))
			return
		}
	}
	resolved, err := spec.ResolveBytes(raw, spec.Overrides{})
	if err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := resolved.JobFingerprint(seeds)
	if err != nil {
		apiError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.store.Has(key) {
		s.tel.cacheHits.Inc()
		writeJSON(w, http.StatusOK, envelope(Job{ID: key, Seeds: seeds, State: JobDone}, true))
		return
	}
	s.tel.cacheMisses.Inc()
	canonical, err := resolved.Canonical()
	if err != nil {
		apiError(w, http.StatusInternalServerError, err.Error())
		return
	}
	job, created, err := s.queue.Submit(key, canonical, seeds)
	if err != nil {
		if err == errQueueFull {
			s.tel.jobsRejected.Inc()
			w.Header().Set("Retry-After", retryAfter)
			apiError(w, http.StatusTooManyRequests, "job queue is full; retry later")
			return
		}
		// The job journal failed for good, and the daemon is draining.
		apiError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if created {
		s.tel.jobsSubmitted.Inc()
		s.tel.observeDepth(s.queue)
		s.logf("job %s: accepted (%d seed(s))", key, seeds)
	} else {
		s.tel.jobsDeduped.Inc()
	}
	w.Header().Set("Location", "/v1/jobs/"+key)
	status := http.StatusAccepted
	if job.State == JobDone {
		status = http.StatusOK
	}
	writeJSON(w, status, envelope(job, false))
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.queue.Jobs()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	out := make([]jobEnvelope, len(jobs))
	for i, j := range jobs {
		out[i] = envelope(j, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.queue.Get(id)
	if !ok {
		// The queue only remembers jobs seen by this journal; a result
		// can still exist from an earlier store generation.
		if s.store.Has(id) {
			writeJSON(w, http.StatusOK, envelope(Job{ID: id, State: JobDone}, true))
			return
		}
		apiError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, envelope(job, false))
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, err := s.store.Get(id)
	if err != nil {
		apiError(w, http.StatusNotFound, fmt.Sprintf("no result for %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are gone on failure
}

func apiError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
