package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"memlife/internal/campaign"
	"memlife/internal/telemetry"
)

func gaugeValue(t *testing.T, s telemetry.Snapshot, name string) float64 {
	t.Helper()
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %q missing from snapshot", name)
	return 0
}

// TestObserveDepthPublishesPerStateGauges: the daemon's depth gauges
// must cover every lifecycle state of the job table — queued, running,
// done, failed — so /metrics/json exposes the full queue composition.
func TestObserveDepthPublishesPerStateGauges(t *testing.T) {
	r := telemetry.NewRegistry()
	telemetry.SetGlobal(r)
	t.Cleanup(func() { telemetry.SetGlobal(nil) })

	q, err := openQueue(campaign.OSFiles{}, testQueuePath(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	mustSubmit(t, q, "aaaa0001") // stays queued
	mustSubmit(t, q, "aaaa0002") // -> running
	mustSubmit(t, q, "aaaa0003") // -> done
	mustSubmit(t, q, "aaaa0004") // -> failed
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		if _, ok := q.Dequeue(stop); !ok {
			t.Fatal("dequeue starved")
		}
	}
	// Dequeue order is FIFO: 0001..0003 are now running; leave 0001
	// running and finish the other two. 0004 never dequeues.
	if err := q.MarkDone("aaaa0002"); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkFailed("aaaa0003", "boom"); err != nil {
		t.Fatal(err)
	}

	tel := newServerTel()
	tel.observeDepth(q)
	snap := r.Snapshot()
	if got := gaugeValue(t, snap, "server/queue_depth"); got != 1 {
		t.Errorf("queue_depth = %v, want 1", got)
	}
	if got := gaugeValue(t, snap, "server/running_jobs"); got != 1 {
		t.Errorf("running_jobs = %v, want 1", got)
	}
	if got := gaugeValue(t, snap, "server/jobs_state_done"); got != 1 {
		t.Errorf("jobs_state_done = %v, want 1", got)
	}
	if got := gaugeValue(t, snap, "server/jobs_state_failed"); got != 1 {
		t.Errorf("jobs_state_failed = %v, want 1", got)
	}
}

// TestServerNoDeadInstruments runs one in-process session that
// accepts, dedupes, serves a cache hit, pushes back with 429, fails a
// job, finishes one and drains, and requires every registered server/*
// counter and histogram to have seen an event. (Gauges are left out: a
// drained queue's depth is rightly zero.)
func TestServerNoDeadInstruments(t *testing.T) {
	r := telemetry.NewRegistry()
	telemetry.SetGlobal(r)
	t.Cleanup(func() { telemetry.SetGlobal(nil) })

	started := make(chan string, 1)
	release := make(chan struct{})
	stuck := stuckRunner(started, release)
	runner := func(ctx context.Context, job Job) ([]byte, error) {
		if job.Seeds == 3 {
			return nil, errors.New("spec cannot run")
		}
		return stuck(ctx, job)
	}
	srv := startServer(t, Config{Dir: t.TempDir(), QueueCap: 1, Runner: runner})
	steps := []struct {
		seeds, code int
	}{
		{1, http.StatusAccepted},        // accept
		{1, http.StatusAccepted},        // dedupe onto the running job
		{2, http.StatusTooManyRequests}, // over capacity
	}
	var id string
	for i, step := range steps {
		code, env, _ := submit(t, srv.Addr(), `{}`, step.seeds)
		if code != step.code {
			t.Fatalf("submit %d (%d seeds) = %d, want %d", i, step.seeds, code, step.code)
		}
		if i == 0 {
			id = env.ID
			<-started
		}
	}
	close(release)
	waitState(t, srv.Addr(), id, JobDone)
	if code, env, _ := submit(t, srv.Addr(), `{}`, 1); code != http.StatusOK || !env.Cached {
		t.Fatalf("cache hit = %d cached=%v, want 200 cached", code, env.Cached)
	}
	_, failed, _ := submit(t, srv.Addr(), `{}`, 3)
	waitState(t, srv.Addr(), failed.ID, JobFailed)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	snap := r.Snapshot()
	fired := map[string]bool{}
	for _, c := range snap.Counters {
		fired[c.Name] = c.Value != 0
	}
	for _, h := range snap.Histograms {
		fired[h.Name] = h.Count != 0
	}
	n := 0
	for name, ok := range fired {
		if !strings.HasPrefix(name, "server/") {
			continue
		}
		n++
		if !ok {
			t.Errorf("instrument %s is registered but saw no event", name)
		}
	}
	if n == 0 {
		t.Fatal("no server/* counter or histogram registered")
	}
}
