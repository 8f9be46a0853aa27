package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memlife/internal/campaign"
)

// seedHealthyStore builds a store with one settled job the way the
// daemon would have left it.
func seedHealthyStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := openStore(campaign.OSFiles{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := openQueue(campaign.OSFiles{}, st.queuePath(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Submit("aaaa1111", []byte(`{}`), 1); err != nil {
		t.Fatal(err)
	}
	doc, err := marshalResultDoc(ResultDoc{ID: "aaaa1111", Seeds: 1, Spec: []byte(`{}`), Result: []byte(`{"ok":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("aaaa1111", doc); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkDone("aaaa1111"); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runDoctorTest(t *testing.T, dir string) (bool, string) {
	t.Helper()
	var buf bytes.Buffer
	ok, err := Doctor(dir, &buf)
	if err != nil {
		t.Fatalf("doctor: %v", err)
	}
	return ok, buf.String()
}

func TestDoctorHealthyStore(t *testing.T) {
	ok, out := runDoctorTest(t, seedHealthyStore(t))
	if !ok {
		t.Fatalf("healthy store must pass:\n%s", out)
	}
	if !strings.Contains(out, "is healthy") {
		t.Fatalf("missing summary line:\n%s", out)
	}
}

func TestDoctorMissingDir(t *testing.T) {
	if _, err := Doctor(filepath.Join(t.TempDir(), "nope"), &bytes.Buffer{}); err == nil {
		t.Fatal("doctor on a missing directory must error")
	}
}

func TestDoctorFlagsMislabeledResult(t *testing.T) {
	dir := seedHealthyStore(t)
	// Overwrite the stored doc with one claiming a different identity —
	// a violated content-addressing invariant.
	doc, _ := marshalResultDoc(ResultDoc{ID: "bbbb2222", Seeds: 1, Spec: []byte(`{}`), Result: []byte(`{}`)})
	if err := os.WriteFile(filepath.Join(dir, resultsDirName, "aaaa1111.json"), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, out := runDoctorTest(t, dir)
	if ok || !strings.Contains(out, "mislabeled") {
		t.Fatalf("mislabeled result must FAIL (ok=%v):\n%s", ok, out)
	}
}

func TestDoctorFlagsUndecodableResult(t *testing.T) {
	dir := seedHealthyStore(t)
	if err := os.WriteFile(filepath.Join(dir, resultsDirName, "aaaa1111.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, out := runDoctorTest(t, dir); ok || !strings.Contains(out, "undecodable") {
		t.Fatalf("undecodable result must FAIL (ok=%v):\n%s", ok, out)
	}
}

func TestDoctorFlagsInteriorJournalCorruption(t *testing.T) {
	dir := seedHealthyStore(t)
	body, err := os.ReadFile(filepath.Join(dir, queueFileName))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte("corrupt-line\n"), body...)
	if err := os.WriteFile(filepath.Join(dir, queueFileName), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, out := runDoctorTest(t, dir); ok || !strings.Contains(out, "FAIL  job journal") {
		t.Fatalf("interior journal corruption must FAIL (ok=%v):\n%s", ok, out)
	}
}

func TestDoctorWarnsOnTornJournalTail(t *testing.T) {
	dir := seedHealthyStore(t)
	f, err := os.OpenFile(filepath.Join(dir, queueFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ok, out := runDoctorTest(t, dir)
	if !ok {
		t.Fatalf("a torn final line is a crash artifact, not corruption:\n%s", out)
	}
	if !strings.Contains(out, "torn final line") {
		t.Fatalf("torn tail must be called out:\n%s", out)
	}
}

func TestDoctorFlagsDoneJobWithoutResult(t *testing.T) {
	dir := seedHealthyStore(t)
	if err := os.Remove(filepath.Join(dir, resultsDirName, "aaaa1111.json")); err != nil {
		t.Fatal(err)
	}
	if ok, out := runDoctorTest(t, dir); ok || !strings.Contains(out, "no stored result") {
		t.Fatalf("done job without a result must FAIL (ok=%v):\n%s", ok, out)
	}
}

func TestDoctorWarnsOnCrashLeftovers(t *testing.T) {
	dir := seedHealthyStore(t)
	// A stray temp file from an interrupted atomic write...
	if err := os.WriteFile(filepath.Join(dir, resultsDirName, ".cccc3333.tmp42"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and a checkpoint for a job the journal has already settled.
	if err := os.WriteFile(filepath.Join(dir, workDirName, "aaaa1111.ckpt.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, out := runDoctorTest(t, dir)
	if !ok {
		t.Fatalf("crash leftovers are warnings, not failures:\n%s", out)
	}
	for _, want := range []string{"stray temp file", "settled"} {
		if !strings.Contains(out, want) {
			t.Errorf("doctor output missing %q:\n%s", want, out)
		}
	}
}

// TestDoctorKeepsFailedJobCheckpoint: a failed job's checkpoint is
// what a resubmit resumes from, so doctor reports it as kept, not as a
// stale leftover.
func TestDoctorKeepsFailedJobCheckpoint(t *testing.T) {
	dir := seedHealthyStore(t)
	q, err := openQueue(campaign.OSFiles{}, filepath.Join(dir, queueFileName), 8)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "bbbb2222")
	if err := q.MarkFailed("bbbb2222", "boom"); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if err := os.WriteFile(filepath.Join(dir, workDirName, "bbbb2222.ckpt.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, out := runDoctorTest(t, dir)
	if !ok {
		t.Fatalf("a failed job's checkpoint is not a problem:\n%s", out)
	}
	if !strings.Contains(out, "ok    checkpoint bbbb2222 belongs to a failed job; kept for a resubmit") {
		t.Errorf("doctor must report the failed job's checkpoint as kept:\n%s", out)
	}
	if strings.Contains(out, "warn  checkpoint") {
		t.Errorf("doctor must not call the failed job's checkpoint stale:\n%s", out)
	}
}

func TestDoctorWarnsWhileDaemonHoldsLock(t *testing.T) {
	dir := seedHealthyStore(t)
	l, err := acquireLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	ok, out := runDoctorTest(t, dir)
	if !ok {
		t.Fatalf("a held lock means a live daemon, not a problem:\n%s", out)
	}
	if !strings.Contains(out, "locked by a running process") {
		t.Fatalf("doctor must note the live lock:\n%s", out)
	}
}
