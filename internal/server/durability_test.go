package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"memlife/internal/campaign"
	"memlife/internal/retry"
)

// Fault-injection and crash-point tests of the daemon's fail-stop
// durability: the job journal and the result store write through
// campaign.Files, which these tests replace with fakes that fail or
// record each operation.

var errInjected = errors.New("injected I/O error")

// faultFiles is campaign.Files on the real file system with injected
// failures: every file Sync, or every directory Sync, fails.
type faultFiles struct {
	failSync, failSyncDir bool
}

func (ff faultFiles) OpenFile(name string, flag int, perm fs.FileMode) (campaign.File, error) {
	f, err := campaign.OSFiles{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{File: f, failSync: ff.failSync}, nil
}

func (faultFiles) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (ff faultFiles) SyncDir(dir string) error {
	if ff.failSyncDir {
		return errInjected
	}
	return campaign.OSFiles{}.SyncDir(dir)
}

type faultFile struct {
	campaign.File
	failSync bool
}

func (f faultFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// reopenJournal swaps the queue's job journal for one that writes
// through files.
func reopenJournal(t *testing.T, s *Server, files campaign.Files) {
	t.Helper()
	if err := s.queue.j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := campaign.OpenJournal(files, s.store.queuePath(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.queue.j = j
}

// TestStorePutFailureStoresNothing: a Put whose temp-file fsync or
// directory fsync fails makes one attempt and leaves no document (and
// no temp file) behind, so the job settles failed rather than being
// served a result whose directory entry may not survive a crash.
func TestStorePutFailureStoresNothing(t *testing.T) {
	for name, files := range map[string]faultFiles{
		"file sync":      {failSync: true},
		"directory sync": {failSyncDir: true},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := openStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			st.files = files
			const key = "abc123"
			if err := st.Put(key, []byte("{}\n")); !errors.Is(err, errInjected) {
				t.Fatalf("Put = %v, want the injected failure", err)
			}
			if _, err := st.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after a failed Put = %v, want ErrNotFound", err)
			}
			if st.Has(key) {
				t.Fatal("Has after a failed Put must be false")
			}
			assertNoTempFiles(t, dir)
		})
	}
}

// TestServerJournalFailureStopsIntake: once a job-journal append fails,
// the submission is refused with 503 (it was never durably accepted),
// the daemon drains by itself, and Run returns the journal failure.
func TestServerJournalFailureStopsIntake(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0", Retry: fastRetry, Runner: instantRunner(nil)})
	if err != nil {
		t.Fatal(err)
	}
	reopenJournal(t, srv, faultFiles{failSync: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- srv.Run(ctx) }()

	if code, _, _ := submit(t, srv.Addr(), `{}`, 1); code != http.StatusServiceUnavailable {
		t.Fatalf("submit with a failing journal = %d, want 503", code)
	}
	select {
	case err := <-ran:
		if !errors.Is(err, errInjected) {
			t.Fatalf("Run = %v, want the journal failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the job journal failed")
	}
	if _, _, err := srv.queue.Submit("bbbb2222", []byte(`{}`), 1); !errors.Is(err, errInjected) {
		t.Fatalf("Submit after the failure = %v, want the same journal error", err)
	}
}

// recFiles is campaign.Files on the real file system that also logs
// every operation a crash can tear or lose, for crashModel to replay.
type recFiles struct {
	mu  sync.Mutex
	ops []fileOp
}

// fileOp is one logged operation: "open", "write", "sync", "rename" or
// "syncdir" on path, or "ack", the test's note that the job named by
// path got its 202.
type fileOp struct {
	kind, path string
	to         string // rename target
	data       []byte // write payload
}

func (r *recFiles) log(op fileOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

func (r *recFiles) OpenFile(name string, flag int, perm fs.FileMode) (campaign.File, error) {
	if flag&os.O_TRUNC != 0 {
		if _, err := os.Stat(name); err == nil {
			return nil, fmt.Errorf("recFiles models appends only; %s would be truncated", name)
		}
	}
	f, err := campaign.OSFiles{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	r.log(fileOp{kind: "open", path: name})
	return &recFile{File: f, r: r, path: name}, nil
}

func (r *recFiles) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	r.log(fileOp{kind: "rename", path: oldpath, to: newpath})
	return nil
}

func (r *recFiles) SyncDir(dir string) error {
	if err := (campaign.OSFiles{}).SyncDir(dir); err != nil {
		return err
	}
	r.log(fileOp{kind: "syncdir", path: dir})
	return nil
}

type recFile struct {
	campaign.File
	r    *recFiles
	path string
}

func (f *recFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.r.log(fileOp{kind: "write", path: f.path, data: bytes.Clone(p[:n])})
	return n, err
}

func (f *recFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.r.log(fileOp{kind: "sync", path: f.path})
	return nil
}

// inode is one file of the crash model: the bytes its last fsync made
// durable, then the writes since, which a crash may tear or lose.
type inode struct {
	synced   []byte
	unsynced [][]byte
}

// nsOp is a directory-entry change (create: from == ""; rename) that
// is not durable until its directory is fsynced.
type nsOp struct {
	dir, from, to string
	ino           *inode
}

// crashModel replays a fileOp log under the persistence model of
// ALICE (Pillai et al., OSDI 2014) restricted to this store's
// operations: file data is durable up to the file's last fsync,
// directory entries up to their directory's last fsync, and entry
// changes persist in the order they were made.
type crashModel struct {
	live, durable map[string]*inode
	pending       []nsOp
	acked         []string
}

// newCrashModel starts from the files under dir, all durable.
func newCrashModel(t *testing.T, dir string) *crashModel {
	t.Helper()
	m := &crashModel{live: map[string]*inode{}, durable: map[string]*inode{}}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		ino := &inode{synced: b}
		m.live[path], m.durable[path] = ino, ino
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *crashModel) apply(t *testing.T, op fileOp) {
	t.Helper()
	switch op.kind {
	case "open":
		if m.live[op.path] == nil {
			ino := &inode{}
			m.live[op.path] = ino
			m.pending = append(m.pending, nsOp{dir: filepath.Dir(op.path), to: op.path, ino: ino})
		}
	case "write":
		ino := m.live[op.path]
		ino.unsynced = append(ino.unsynced, op.data)
	case "sync":
		ino := m.live[op.path]
		ino.synced = bytes.Join(append([][]byte{ino.synced}, ino.unsynced...), nil)
		ino.unsynced = nil
	case "rename":
		ino := m.live[op.path]
		delete(m.live, op.path)
		m.live[op.to] = ino
		m.pending = append(m.pending, nsOp{dir: filepath.Dir(op.to), from: op.path, to: op.to, ino: ino})
	case "syncdir":
		kept := m.pending[:0]
		for _, p := range m.pending {
			if p.dir == op.path {
				m.durable = persist(m.durable, p)
			} else {
				kept = append(kept, p)
			}
		}
		m.pending = kept
	case "ack":
		m.acked = append(m.acked, op.path)
	default:
		t.Fatalf("unknown op %q", op.kind)
	}
}

// persist returns ns with one entry change applied.
func persist(ns map[string]*inode, p nsOp) map[string]*inode {
	out := make(map[string]*inode, len(ns)+1)
	for k, v := range ns {
		out[k] = v
	}
	if p.from != "" {
		delete(out, p.from)
	}
	out[p.to] = p.ino
	return out
}

// states returns every on-disk state a crash at this point can leave,
// as path -> content. The directory entries are the durable ones plus
// any in-order prefix of the pending changes. In each, every file
// holds its synced bytes; then, one file at a time, the writes since
// its last fsync land whole, or land up to a torn half of one of them.
func (m *crashModel) states() []map[string][]byte {
	var out []map[string][]byte
	ns := m.durable
	for p := 0; ; p++ {
		base := map[string][]byte{}
		for path, ino := range ns {
			base[path] = ino.synced
		}
		out = append(out, base)
		for path, ino := range ns {
			for i, w := range ino.unsynced {
				prefix := bytes.Join(append([][]byte{ino.synced}, ino.unsynced[:i]...), nil)
				for _, tail := range [][]byte{w[:len(w)/2], w} {
					st := map[string][]byte{}
					for k, v := range base {
						st[k] = v
					}
					st[path] = append(bytes.Clone(prefix), tail...)
					out = append(out, st)
				}
			}
		}
		if p == len(m.pending) {
			return out
		}
		ns = persist(ns, m.pending[p])
	}
}

// stateKey identifies a crash state, so each distinct one is checked
// once.
func stateKey(st map[string][]byte) string {
	paths := make([]string, 0, len(st))
	for p := range st {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%s\x00%q\x00", p, st[p])
	}
	return b.String()
}

// TestServeCrashPointsKeepDurabilityContract records a serve session's
// file operations (accepts, a cache hit, a failure and its resubmit,
// results stored) and checks every state a crash at any point between
// two operations can leave on disk. In each: every job ACKed with 202
// before the crash replays, `doctor` passes (a torn tail is only a
// warning), and each result document is whole or absent.
//
// The model starts from the store New created (directories, LOCK and
// the empty job journal), taken as durable.
func TestServeCrashPointsKeepDurabilityContract(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// Jobs with 3 seeds fail for good, so the session journals a
	// failure and re-queues it on resubmit.
	runner := func(ctx context.Context, job Job) ([]byte, error) {
		if job.Seeds == 3 {
			return nil, retry.Permanent(errors.New("spec cannot run"))
		}
		return instantRunner(nil)(ctx, job)
	}
	srv, err := New(Config{Dir: dir, Addr: "127.0.0.1:0", Retry: fastRetry, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recFiles{}
	reopenJournal(t, srv, rec)
	srv.store.files = rec
	model := newCrashModel(t, dir)
	srv.Start()

	for _, step := range []struct {
		seeds int
		code  int
		state JobState
	}{
		{1, http.StatusAccepted, JobDone},
		{3, http.StatusAccepted, JobFailed},
		{1, http.StatusOK, JobDone}, // cache hit
		{3, http.StatusAccepted, JobFailed},
		{2, http.StatusAccepted, JobDone},
	} {
		code, env, _ := submit(t, srv.Addr(), `{}`, step.seeds)
		if code != step.code {
			t.Fatalf("submit (%d seeds) = %d, want %d", step.seeds, code, step.code)
		}
		if code == http.StatusAccepted {
			rec.log(fileOp{kind: "ack", path: env.ID})
		}
		waitState(t, srv.Addr(), env.ID, step.state)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	// The documents as stored: a crash may lose one, never change it.
	want := map[string][]byte{}
	keys, err := srv.store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if want[key], err = srv.store.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) != 2 {
		t.Fatalf("session stored %d results, want 2", len(want))
	}

	seen := map[string]bool{}
	scratch := t.TempDir()
	checked := 0
	for k := 0; k <= len(rec.ops); k++ {
		if k > 0 {
			model.apply(t, rec.ops[k-1])
		}
		for _, st := range model.states() {
			key := stateKey(st)
			if seen[key] {
				continue
			}
			seen[key] = true
			checked++
			checkCrashState(t, filepath.Join(scratch, fmt.Sprint(checked)), dir, st, model.acked, want)
			if t.Failed() {
				t.Fatalf("crash after operation %d of %d (%+v)", k, len(rec.ops), rec.ops[max(k-1, 0)])
			}
		}
	}
	// Each write adds at least its torn-tail state.
	writes := 0
	for _, op := range rec.ops {
		if op.kind == "write" {
			writes++
		}
	}
	if checked <= writes {
		t.Fatalf("checked %d crash states over %d writes", checked, writes)
	}
}

// checkCrashState writes one crash state of the store at src into dir
// and checks the durability contract on it.
func checkCrashState(t *testing.T, dir, src string, st map[string][]byte, acked []string, want map[string][]byte) {
	t.Helper()
	for _, d := range []string{resultsDirName, workDirName} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for path, b := range st {
		rel, err := filepath.Rel(src, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer os.RemoveAll(dir)

	var report bytes.Buffer
	if ok, err := Doctor(dir, &report); err != nil || !ok {
		t.Errorf("doctor: ok=%v err=%v\n%s", ok, err, report.String())
	}
	keys, err := (&store{dir: dir}).Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		got, err := os.ReadFile(filepath.Join(dir, resultsDirName, key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[key]) {
			t.Errorf("result %s is not the whole stored document: %q", key, got)
		}
	}
	q, err := openQueue(filepath.Join(dir, queueFileName), 64)
	if err != nil {
		t.Errorf("job journal does not reopen: %v", err)
		return
	}
	defer q.Close()
	for _, id := range acked {
		if _, ok := q.Get(id); !ok {
			t.Errorf("ACKed job %s lost", id)
		}
	}
}
