package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memlife/internal/campaign"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Drain() })
	return srv
}

// instantRunner settles every job immediately with a valid result doc.
func instantRunner(calls *atomic.Int32) Runner {
	return func(_ context.Context, job Job) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		return marshalResultDoc(ResultDoc{ID: job.ID, Seeds: job.Seeds, Spec: job.Spec, Result: json.RawMessage(`{"ok":true}`)})
	}
}

// stuckRunner blocks every job until release closes (or the job context
// is cancelled), signalling each start on started.
func stuckRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, job Job) ([]byte, error) {
		select {
		case started <- job.ID:
		default:
		}
		select {
		case <-release:
			return marshalResultDoc(ResultDoc{ID: job.ID, Seeds: job.Seeds, Spec: job.Spec, Result: json.RawMessage(`{"ok":true}`)})
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func submit(t *testing.T, addr, body string, seeds int) (int, jobEnvelope, http.Header) {
	t.Helper()
	url := fmt.Sprintf("http://%s/v1/jobs?seeds=%d", addr, seeds)
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env jobEnvelope
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, env, resp.Header
}

func waitState(t *testing.T, addr, id string, want JobState) jobEnvelope {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s", addr, id))
		if err != nil {
			t.Fatal(err)
		}
		var env jobEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err == nil && env.State == string(want) {
			return env
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (last: %+v)", id, want, env)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, addr, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/results/%s", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s = %d", id, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertNoTempFiles walks a store directory asserting no in-progress
// write artifacts survived.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("partial file left behind: %s", path)
		}
		return nil
	})
}

func TestServerSubmitToDoneAndCacheHit(t *testing.T) {
	var calls atomic.Int32
	srv := startServer(t, Config{Dir: t.TempDir(), Runner: instantRunner(&calls)})

	code, env, _ := submit(t, srv.Addr(), `{}`, 1)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	if env.Cached {
		t.Fatal("first submit must not be a cache hit")
	}
	done := waitState(t, srv.Addr(), env.ID, JobDone)
	if done.ResultURL == "" {
		t.Fatal("done job must advertise a result URL")
	}
	var doc ResultDoc
	if err := json.Unmarshal(fetchResult(t, srv.Addr(), env.ID), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != env.ID {
		t.Fatalf("result doc id = %q, want %q", doc.ID, env.ID)
	}

	// An identical submission is served from the store: 200, cached,
	// and the runner is never invoked again.
	code, env2, _ := submit(t, srv.Addr(), `{}`, 1)
	if code != http.StatusOK || !env2.Cached {
		t.Fatalf("duplicate submit = %d cached=%v, want 200 cached", code, env2.Cached)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner ran %d times, want 1 (duplicate must not re-simulate)", got)
	}
}

func TestServerDedupesLiveDuplicate(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	srv := startServer(t, Config{Dir: t.TempDir(), Runner: stuckRunner(started, release)})

	code, env, _ := submit(t, srv.Addr(), `{}`, 1)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	<-started
	// Same spec while in flight: dedupes onto the live job, no new entry.
	code, env2, _ := submit(t, srv.Addr(), `{}`, 1)
	if code != http.StatusAccepted || env2.ID != env.ID || env2.Cached {
		t.Fatalf("live duplicate = %d id=%s cached=%v, want 202 dedupe onto %s", code, env2.ID, env2.Cached, env.ID)
	}
	close(release)
	waitState(t, srv.Addr(), env.ID, JobDone)
}

func TestServerBackpressure429(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	srv := startServer(t, Config{Dir: t.TempDir(), QueueCap: 1, JobWorkers: 1, Runner: stuckRunner(started, release)})

	code, env, _ := submit(t, srv.Addr(), `{}`, 1)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	<-started
	// The single capacity slot is occupied by the running job: a
	// *different* job must be pushed back with 429 + Retry-After.
	code, _, hdr := submit(t, srv.Addr(), `{}`, 2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit over capacity = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
	// Draining the queue frees the slot.
	close(release)
	waitState(t, srv.Addr(), env.ID, JobDone)
	if code, _, _ := submit(t, srv.Addr(), `{}`, 2); code != http.StatusAccepted {
		t.Fatalf("submit after drain = %d, want 202", code)
	}
}

func TestServerRejectsInvalidSubmissions(t *testing.T) {
	srv := startServer(t, Config{Dir: t.TempDir(), Runner: instantRunner(nil)})
	post := func(url, body string) int {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	base := "http://" + srv.Addr()
	if code := post(base+"/v1/jobs", `{"fixture":"no-such-fixture"}`); code != http.StatusBadRequest {
		t.Errorf("invalid spec = %d, want 400", code)
	}
	if code := post(base+"/v1/jobs?seeds=0", `{}`); code != http.StatusBadRequest {
		t.Errorf("seeds=0 = %d, want 400", code)
	}
	if code := post(base+"/v1/jobs?seeds=banana", `{}`); code != http.StatusBadRequest {
		t.Errorf("seeds=banana = %d, want 400", code)
	}
	if code := post(base+"/v1/jobs", `{"run":`); code != http.StatusBadRequest {
		t.Errorf("truncated JSON = %d, want 400", code)
	}
	resp, err := http.Get(base + "/v1/jobs/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestServerFailedJobRunsOnceUntilResubmit: a job whose run fails is
// not re-run by the scheduler. It settles failed with its cause, and
// only an explicit resubmit runs it again.
func TestServerFailedJobRunsOnceUntilResubmit(t *testing.T) {
	var calls atomic.Int32
	failFirst := func(ctx context.Context, job Job) ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("spec cannot run")
		}
		return instantRunner(nil)(ctx, job)
	}
	srv := startServer(t, Config{Dir: t.TempDir(), Runner: failFirst})
	_, env, _ := submit(t, srv.Addr(), `{}`, 1)
	failed := waitState(t, srv.Addr(), env.ID, JobFailed)
	if got := calls.Load(); got != 1 {
		t.Fatalf("failing runner called %d times, want 1", got)
	}
	if !strings.Contains(failed.Error, "spec cannot run") {
		t.Fatalf("failed job error = %q, want the cause", failed.Error)
	}
	code, env2, _ := submit(t, srv.Addr(), `{}`, 1)
	if code != http.StatusAccepted || env2.Cached {
		t.Fatalf("resubmit of failed job = %d cached=%v, want 202 fresh run", code, env2.Cached)
	}
	waitState(t, srv.Addr(), env.ID, JobDone)
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner called %d times after the resubmit, want 2", got)
	}
}

// TestServerDrainRequeuesInFlight: a drain that outlives its grace
// cancels in-flight jobs; they checkpoint, requeue, and the store holds
// no partial files. A fresh daemon over the same directory finishes the
// work untouched by hands.
func TestServerDrainRequeuesInFlight(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed: the job can only end by cancellation
	srv := startServer(t, Config{Dir: dir, DrainGrace: 20 * time.Millisecond, Runner: stuckRunner(started, release)})

	_, env, _ := submit(t, srv.Addr(), `{}`, 1)
	<-started
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertNoTempFiles(t, dir)
	if j, ok := srv.queue.Get(env.ID); !ok || j.State != JobQueued {
		t.Fatalf("drained in-flight job = %+v, want queued", j)
	}

	// Takeover: the lock is free, the journal replays, the job runs.
	srv2 := startServer(t, Config{Dir: dir, Runner: instantRunner(nil)})
	waitState(t, srv2.Addr(), env.ID, JobDone)
}

func TestServerHealthzFlipsWhileDraining(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0", Runner: instantRunner(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.releaseAll()
	h := srv.handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz while serving = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}
	close(srv.draining)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz while draining = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

func TestServerSecondDaemonOnSameStoreFailsFast(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, Config{Dir: dir, Runner: instantRunner(nil)})
	if _, err := New(Config{Dir: dir, Addr: "127.0.0.1:0", Runner: instantRunner(nil)}); err == nil {
		t.Fatal("second daemon on a locked store must fail")
	} else if !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second daemon error = %v, want the lock explanation", err)
	}
	srv.Drain()
	srv2, err := New(Config{Dir: dir, Addr: "127.0.0.1:0", Runner: instantRunner(nil)})
	if err != nil {
		t.Fatalf("daemon after drain must acquire the lock: %v", err)
	}
	srv2.releaseAll()
}

// campaignRunner is a cheap production-shaped Runner: it runs the job
// as a real checkpointed campaign (like scenarioRunner) but with a stub
// per-shard metric that is a pure function of the derived seed. resolve
// supplies the shard body so tests can gate individual shards.
func campaignRunner(dir string, resolve campaign.Resolver) Runner {
	return func(ctx context.Context, job Job) ([]byte, error) {
		cs := campaign.Spec{Experiments: []string{"stub"}, Seeds: job.Seeds, BaseSeed: 7, ConfigHash: job.ID}
		cfg := campaign.Config{
			Workers:        1,
			Resolve:        resolve,
			CheckpointPath: filepath.Join(dir, workDirName, job.ID+".ckpt.jsonl"),
			Resume:         true,
		}
		res, err := campaign.Run(ctx, cs, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return marshalResultDoc(ResultDoc{
			ID:     job.ID,
			Seeds:  job.Seeds,
			Spec:   job.Spec,
			Result: json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n")),
		})
	}
}

// stubShards returns a Resolver whose shard metrics depend only on the
// derived seed, counting executions in ran. When gateAfter >= 0, every
// execution past that count blocks until cancellation — pinning a shard
// in flight so a drain interrupts the campaign mid-way.
func stubShards(ran *atomic.Int32, gateAfter int32, blocked chan<- struct{}) campaign.Resolver {
	var once sync.Once
	return func(string) (campaign.RunnerFunc, bool) {
		return func(ctx context.Context, sh campaign.Shard, _ io.Writer) (campaign.Metrics, error) {
			if gateAfter >= 0 && ran.Load() >= gateAfter {
				once.Do(func() {
					if blocked != nil {
						close(blocked)
					}
				})
				<-ctx.Done()
				return nil, ctx.Err()
			}
			ran.Add(1)
			return campaign.Metrics{"value": float64(sh.Seed%10007) / 7}, nil
		}, true
	}
}

// TestServerCrashResumeByteIdentical is the headline durability proof:
// a job interrupted mid-campaign (2 of 4 shards done, checkpoint tail
// torn as if killed mid-append) resumes on the next boot and produces a
// result byte-identical to a never-interrupted run — without re-running
// the completed shards.
func TestServerCrashResumeByteIdentical(t *testing.T) {
	const seeds = 4
	specBody := `{}`

	// Reference: uninterrupted run.
	dirA := t.TempDir()
	var ranA atomic.Int32
	srvA := startServer(t, Config{Dir: dirA, Runner: campaignRunner(dirA, stubShards(&ranA, -1, nil))})
	_, envA, _ := submit(t, srvA.Addr(), specBody, seeds)
	waitState(t, srvA.Addr(), envA.ID, JobDone)
	want := fetchResult(t, srvA.Addr(), envA.ID)
	if ranA.Load() != seeds {
		t.Fatalf("reference run executed %d shards, want %d", ranA.Load(), seeds)
	}
	srvA.Drain()

	// Interrupted run: 2 shards complete, the 3rd pins in flight, then
	// the daemon drains (grace expired → jobs cancelled to checkpoint).
	dirB := t.TempDir()
	var ranB atomic.Int32
	blocked := make(chan struct{})
	srvB := startServer(t, Config{Dir: dirB, DrainGrace: 10 * time.Millisecond,
		Runner: campaignRunner(dirB, stubShards(&ranB, 2, blocked))})
	_, envB, _ := submit(t, srvB.Addr(), specBody, seeds)
	if envB.ID != envA.ID {
		t.Fatalf("same spec produced different job ids: %s vs %s", envB.ID, envA.ID)
	}
	<-blocked
	if err := srvB.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := ranB.Load(); got != 2 {
		t.Fatalf("interrupted run completed %d shards, want 2", got)
	}
	assertNoTempFiles(t, dirB)

	// Sharpen the crash: tear the checkpoint tail as a SIGKILL
	// mid-append would.
	ckpt := filepath.Join(dirB, workDirName, envB.ID+".ckpt.jsonl")
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("the interrupted run must have left a checkpoint: %v", err)
	}
	if _, err := f.WriteString(`{"index":3,"metr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The wounded store still passes doctor (torn tail is a warning).
	var report bytes.Buffer
	if ok, err := Doctor(dirB, &report); err != nil || !ok {
		t.Fatalf("doctor on drained store: ok=%v err=%v\n%s", ok, err, report.String())
	}
	if !strings.Contains(report.String(), "torn final line") {
		t.Fatalf("doctor must call out the torn checkpoint tail:\n%s", report.String())
	}

	// Reboot: the journal replays the job as queued, the campaign
	// resumes its checkpoint, and only the 2 missing shards execute.
	var ranB2 atomic.Int32
	srvB2 := startServer(t, Config{Dir: dirB, Runner: campaignRunner(dirB, stubShards(&ranB2, -1, nil))})
	waitState(t, srvB2.Addr(), envB.ID, JobDone)
	got := fetchResult(t, srvB2.Addr(), envB.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}
	if n := ranB2.Load(); n != 2 {
		t.Fatalf("resumed run executed %d shards, want 2 (checkpointed shards must not re-run)", n)
	}
}
