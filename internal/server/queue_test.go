package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memlife/internal/campaign"
)

func testQueuePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), queueFileName)
}

func mustSubmit(t *testing.T, q *queue, id string) Job {
	t.Helper()
	job, created, err := q.Submit(id, []byte(`{}`), 1)
	if err != nil {
		t.Fatalf("Submit(%s): %v", id, err)
	}
	if !created {
		t.Fatalf("Submit(%s): expected a new entry", id)
	}
	return job
}

// TestQueueJournalBeforeACK is the durable-before-ACK contract: by the
// time Submit returns, the submit record is already on disk — a
// SIGKILL immediately after the ACK loses nothing.
func TestQueueJournalBeforeACK(t *testing.T) {
	path := testQueuePath(t)
	q, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "aaaa1111")
	// Deliberately no Close: read the journal as a post-SIGKILL reboot
	// would find it.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("journal must exist before Submit returns: %v", err)
	}
	if !strings.Contains(string(b), `"op":"submit"`) || !strings.Contains(string(b), "aaaa1111") {
		t.Fatalf("journal missing the submit record: %q", b)
	}
	q2, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if j, ok := q2.Get("aaaa1111"); !ok || j.State != JobQueued {
		t.Fatalf("replayed job = %+v, want queued", j)
	}
}

func TestQueueDedupeAndResubmitFailed(t *testing.T) {
	q, err := openQueue(campaign.OSFiles{}, testQueuePath(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "aaaa1111")
	if _, created, err := q.Submit("aaaa1111", []byte(`{}`), 1); err != nil || created {
		t.Fatalf("duplicate submit of a queued job: created=%v err=%v, want dedupe", created, err)
	}
	if err := q.MarkFailed("aaaa1111", "boom"); err != nil {
		t.Fatal(err)
	}
	job, created, err := q.Submit("aaaa1111", []byte(`{}`), 1)
	if err != nil || !created {
		t.Fatalf("resubmit of a failed job: created=%v err=%v, want re-queue", created, err)
	}
	if job.State != JobQueued {
		t.Fatalf("resubmitted job state = %s, want queued", job.State)
	}
}

func TestQueueCapacityRejects(t *testing.T) {
	q, err := openQueue(campaign.OSFiles{}, testQueuePath(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "aaaa1111")
	mustSubmit(t, q, "bbbb2222")
	if _, _, err := q.Submit("cccc3333", []byte(`{}`), 1); !errors.Is(err, errQueueFull) {
		t.Fatalf("submit over capacity: %v, want errQueueFull", err)
	}
	// Settling a job frees its slot.
	if err := q.MarkDone("aaaa1111"); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "cccc3333")
}

// TestQueueReplayTerminalStates proves crash recovery semantics: done
// and failed survive a reboot; a job that was mid-run (submit only, no
// terminal record) comes back queued and will re-run.
func TestQueueReplayTerminalStates(t *testing.T) {
	path := testQueuePath(t)
	q, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "aaaa1111")
	mustSubmit(t, q, "bbbb2222")
	mustSubmit(t, q, "cccc3333")
	if err := q.MarkDone("aaaa1111"); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkFailed("bbbb2222", "exhausted"); err != nil {
		t.Fatal(err)
	}
	// cccc3333 stays queued; simulate it having been dequeued too —
	// "running" is never journaled, so on disk it looks identical.
	if _, ok := q.Dequeue(nil); !ok {
		t.Fatal("dequeue failed")
	}
	q.Close()

	q2, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	want := map[string]JobState{"aaaa1111": JobDone, "bbbb2222": JobFailed, "cccc3333": JobQueued}
	for id, state := range want {
		j, ok := q2.Get(id)
		if !ok || j.State != state {
			t.Errorf("replayed %s = %+v, want state %s", id, j, state)
		}
	}
	if j, _ := q2.Get("bbbb2222"); j.Error != "exhausted" {
		t.Errorf("failed job error = %q, want preserved message", j.Error)
	}
	if job, ok := q2.Dequeue(nil); !ok || job.ID != "cccc3333" {
		t.Errorf("Dequeue after replay = %+v, want the interrupted job", job)
	}
}

// TestQueueTornTailTolerated: a SIGKILL mid-append leaves a torn final
// line; the reboot discards it and keeps everything before it.
func TestQueueTornTailTolerated(t *testing.T) {
	path := testQueuePath(t)
	q, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "aaaa1111")
	q.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"aaaa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	defer q2.Close()
	if j, ok := q2.Get("aaaa1111"); !ok || j.State != JobQueued {
		t.Fatalf("job after torn tail = %+v, want queued (torn done discarded)", j)
	}
}

// TestQueueReopenTwiceAfterTornTail: the first reboot after a torn
// tail cuts it before appending, so a record written then does not
// land on the torn bytes and the second reboot replays cleanly.
func TestQueueReopenTwiceAfterTornTail(t *testing.T) {
	path := testQueuePath(t)
	q, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "aaaa1111")
	q.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"aaaa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q2, "bbbb2222")
	q2.Close()

	q3, err := openQueue(campaign.OSFiles{}, path, 8)
	if err != nil {
		t.Fatalf("second reopen after a torn tail: %v", err)
	}
	defer q3.Close()
	for _, id := range []string{"aaaa1111", "bbbb2222"} {
		if j, ok := q3.Get(id); !ok || j.State != JobQueued {
			t.Fatalf("job %s after two reopens = %+v, want queued", id, j)
		}
	}
}

// TestQueueInteriorCorruptionFatal: a malformed line *before* the end
// cannot come from a crash — refuse to serve from it.
func TestQueueInteriorCorruptionFatal(t *testing.T) {
	path := testQueuePath(t)
	body := `{"op":"submit","id":"aaaa1111","seeds":1,"spec":{}}` + "\n" +
		`{"op":"done","id":"aa` + "\n" +
		`{"op":"submit","id":"bbbb2222","seeds":1,"spec":{}}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openQueue(campaign.OSFiles{}, path, 8); err == nil {
		t.Fatal("interior corruption must refuse to open")
	} else if errors.Is(err, campaign.ErrTornTail) {
		t.Fatalf("interior corruption must not be classified as a torn tail: %v", err)
	}
}

func TestQueueUnknownOpFatal(t *testing.T) {
	path := testQueuePath(t)
	body := `{"op":"explode","id":"aaaa1111"}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openQueue(campaign.OSFiles{}, path, 8); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op must refuse to open, got: %v", err)
	}
}

func TestQueueRequeuePreservesFIFOHead(t *testing.T) {
	q, err := openQueue(campaign.OSFiles{}, testQueuePath(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "aaaa1111")
	mustSubmit(t, q, "bbbb2222")
	job, _ := q.Dequeue(nil)
	if job.ID != "aaaa1111" {
		t.Fatalf("Dequeue = %s, want FIFO head", job.ID)
	}
	q.Requeue("aaaa1111")
	if j, _ := q.Get("aaaa1111"); j.State != JobQueued {
		t.Fatalf("requeued job state = %s, want queued", j.State)
	}
	if job, _ := q.Dequeue(nil); job.ID != "aaaa1111" {
		t.Fatalf("requeued job must come back first, got %s", job.ID)
	}
}
