package campaign

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Direct unit tests for the checkpoint journal, complementing the
// engine-level resume tests in campaign_test.go: these pin the exact
// tolerance rules of a checkpoint replay (missing file, blank lines,
// torn tail vs interior corruption, foreign fingerprints) and the
// append discipline of the journal writer.

// loadCheckpoint reads the completed shards of campaign fingerprint
// from the journal at path the way a resume does, without opening it
// for appending.
func loadCheckpoint(path, fingerprint string) (map[int]ShardResult, error) {
	done := map[int]ShardResult{}
	if err := ScanJournal(path, checkpointReplay(path, fingerprint, done)); err != nil && !errors.Is(err, ErrTornTail) {
		return nil, err
	}
	return done, nil
}

// openJournal opens the journal at path for appending as a resumed
// campaign with fingerprint "fp" does.
func openJournal(path string) (*Journal, error) {
	return openCheckpoint(path, "fp", true, map[int]ShardResult{})
}

func writeRecords(t *testing.T, path string, recs ...checkpointRecord) {
	t.Helper()
	var b []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordLine returns rec as one journal line without its newline.
func recordLine(t *testing.T, rec checkpointRecord) string {
	t.Helper()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

func testRecord(fp string, idx int) checkpointRecord {
	return checkpointRecord{
		Fingerprint: fp,
		Index:       idx,
		Experiment:  "alpha",
		SeedIndex:   idx,
		Seed:        ShardSeed(42, idx),
		Metrics:     Metrics{"value": float64(idx)},
		ElapsedMS:   5,
	}
}

func TestLoadCheckpointMissingFileIsEmpty(t *testing.T) {
	done, err := loadCheckpoint(filepath.Join(t.TempDir(), "absent.jsonl"), "fp")
	if err != nil {
		t.Fatalf("missing checkpoint must read as empty, got %v", err)
	}
	if len(done) != 0 {
		t.Fatalf("missing checkpoint must yield no shards, got %d", len(done))
	}
}

func TestLoadCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeRecords(t, path, testRecord("fp", 0), testRecord("fp", 3))
	done, err := loadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("want 2 shards, got %d", len(done))
	}
	sr, ok := done[3]
	if !ok {
		t.Fatal("shard 3 missing from restored map")
	}
	if sr.Shard.Experiment != "alpha" || sr.Shard.SeedIndex != 3 || sr.Shard.Seed != ShardSeed(42, 3) {
		t.Fatalf("restored shard identity corrupted: %+v", sr.Shard)
	}
	if sr.Metrics["value"] != 3 {
		t.Fatalf("restored metrics corrupted: %+v", sr.Metrics)
	}
}

func TestLoadCheckpointSkipsBlankLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	line, err := json.Marshal(testRecord("fp", 1))
	if err != nil {
		t.Fatal(err)
	}
	content := "\n" + string(line) + "\n\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	done, err := loadCheckpoint(path, "fp")
	if err != nil {
		t.Fatalf("blank lines must be skipped, got %v", err)
	}
	if len(done) != 1 {
		t.Fatalf("want 1 shard, got %d", len(done))
	}
}

// TestLoadCheckpointTornTailTolerated: a malformed FINAL line is the
// signature of a process killed mid-append; the preceding records must
// survive and the torn shard simply re-runs.
func TestLoadCheckpointTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeRecords(t, path, testRecord("fp", 0), testRecord("fp", 1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fingerprint":"fp","index":2,"metr`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	done, err := loadCheckpoint(path, "fp")
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if len(done) != 2 {
		t.Fatalf("want the 2 whole records, got %d", len(done))
	}
	if _, ok := done[2]; ok {
		t.Fatal("the torn record must not be restored")
	}
}

// TestLoadCheckpointInteriorCorruptionFatal: a malformed line FOLLOWED
// by a valid one cannot be a torn append — the file is corrupt and
// resuming from it silently would drop completed work.
func TestLoadCheckpointInteriorCorruptionFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	line0, err := json.Marshal(testRecord("fp", 0))
	if err != nil {
		t.Fatal(err)
	}
	line2, err := json.Marshal(testRecord("fp", 2))
	if err != nil {
		t.Fatal(err)
	}
	content := string(line0) + "\n{corrupt}\n" + string(line2) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path, "fp"); err == nil {
		t.Fatal("interior corruption must be an error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error must name the corrupt line, got %v", err)
	}
}

// TestLoadCheckpointForeignFingerprintFatal: any record from another
// spec poisons the journal, even when earlier records match.
func TestLoadCheckpointForeignFingerprintFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeRecords(t, path, testRecord("fp", 0), testRecord("other", 1))
	if _, err := loadCheckpoint(path, "fp"); err == nil {
		t.Fatal("foreign fingerprint must be an error")
	} else if !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("error must explain the mismatch, got %v", err)
	}
}

// TestJournalAppendDurable: every append lands as one whole JSON line
// readable back through loadCheckpoint — without Close — because each
// record is written and synced before append returns (a killed process
// loses at most the record being written).
func TestJournalAppendDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord("fp", i)); err != nil {
			t.Fatal(err)
		}
		// Read back through a fresh descriptor while the journal is
		// still open, as a resuming process would after a kill.
		done, err := loadCheckpoint(path, "fp")
		if err != nil {
			t.Fatal(err)
		}
		if len(done) != i+1 {
			t.Fatalf("after %d appends: restored %d shards", i+1, len(done))
		}
	}
}

// TestJournalAppendReopensForAppend: resuming opens the same file; new
// records must extend, not truncate, the survivors.
func TestJournalAppendReopensForAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("fp", 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Append(testRecord("fp", 1)); err != nil {
		t.Fatal(err)
	}
	done, err := loadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("reopened journal must append, got %d shards", len(done))
	}
}

// TestOpenJournalCutsTornTail: opening a journal for appending cuts a
// torn final line and ends a final whole line that lacks its newline
// with one, so the next record starts a line of its own and the file
// replays cleanly.
func TestOpenJournalCutsTornTail(t *testing.T) {
	whole := recordLine(t, testRecord("fp", 0))
	for name, body := range map[string]string{
		"torn tail":  whole + "\n" + `{"fingerprint":"fp","index":1,"metr`,
		"torn line":  whole + "\n" + `{"fingerprint":"fp","ind` + "\n",
		"no newline": whole,
		"only torn":  `{"fingerprint":"fp","ind`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := openJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(testRecord("fp", 2)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ScanJournal(path, func(int, []byte) error { return nil }); err != nil {
				t.Fatalf("journal after open+append must scan cleanly: %v", err)
			}
			done, err := loadCheckpoint(path, "fp")
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := done[2]; !ok {
				t.Fatalf("appended record lost: %v", done)
			}
		})
	}
}

// TestOpenJournalRejectsInteriorCorruption: a journal with a malformed
// interior line is not opened for appending.
func TestOpenJournalRejectsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	whole := recordLine(t, testRecord("fp", 0))
	if err := os.WriteFile(path, []byte("{bad\n"+whole+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := OpenJournal(OSFiles{}, path, nil); err == nil {
		f.Close()
		t.Fatal("interior corruption must be an error")
	}
}

// TestJournalConcurrentAppends: workers journal completions from their
// own goroutines; under contention every line must still parse and no
// record may be lost (run with -race to check the locking too).
func TestJournalConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(testRecord("fp", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	done, err := loadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != n {
		t.Fatalf("want %d journaled shards, got %d", n, len(done))
	}
	for i := 0; i < n; i++ {
		if _, ok := done[i]; !ok {
			t.Fatalf("shard %d lost under contention", i)
		}
	}
}

var errInjected = errors.New("injected I/O error")

// faultFiles is Files on the real file system that fails one call:
// the failWrite-th Write lands only the first half of its bytes, or
// the failSync-th Sync fails (1-based; 0 never). Every later call
// would succeed, so a journal that retried would get through.
type faultFiles struct {
	failWrite, failSync int
	writes, syncs       int
}

func (ff *faultFiles) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := OSFiles{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{File: f, ff: ff}, nil
}

func (*faultFiles) Mkdir(name string, perm fs.FileMode) error { return os.Mkdir(name, perm) }
func (*faultFiles) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (*faultFiles) SyncDir(dir string) error                  { return OSFiles{}.SyncDir(dir) }

type faultFile struct {
	File
	ff *faultFiles
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.ff.writes++; f.ff.writes == f.ff.failWrite {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if f.ff.syncs++; f.ff.syncs == f.ff.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// TestJournalFailStop: the first failed write or fsync is permanent.
// The failing Append and every later one return the same error and
// write nothing more, although the next call would succeed; a reopen
// cuts what a partial write left, so the journal replays whole records
// only and takes new appends.
func TestJournalFailStop(t *testing.T) {
	for name, ff := range map[string]*faultFiles{
		"failed sync":   {failSync: 2},
		"partial write": {failWrite: 2},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			j, err := OpenJournal(ff, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(testRecord("fp", 0)); err != nil {
				t.Fatal(err)
			}
			first := j.Append(testRecord("fp", 1))
			if !errors.Is(first, errInjected) {
				t.Fatalf("Append = %v, want the injected failure", first)
			}
			writes, syncs := ff.writes, ff.syncs
			for i := 2; i < 4; i++ {
				if err := j.Append(testRecord("fp", i)); err != first {
					t.Fatalf("Append after the failure = %v, want the first error %v", err, first)
				}
			}
			if ff.writes != writes || ff.syncs != syncs {
				t.Fatalf("a failed journal wrote %d and synced %d more times", ff.writes-writes, ff.syncs-syncs)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			j, err = openJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(testRecord("fp", 4)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ScanJournal(path, func(int, []byte) error { return nil }); err != nil {
				t.Fatalf("journal after reopen must scan cleanly: %v", err)
			}
			done, err := loadCheckpoint(path, "fp")
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []bool{true, name == "failed sync", false, false, true} {
				if _, ok := done[i]; ok != want {
					t.Fatalf("record %d replayed = %v, want %v (replayed %v)", i, ok, want, done)
				}
			}
		})
	}
}
