package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScanJournal feeds arbitrary bytes to the journal reader that
// every campaign resume and server queue replay goes through. The seed
// corpus (testdata/fuzz/FuzzScanJournal) holds valid lines, a torn
// tail, interior garbage, an empty file and a line longer than the
// scanner's initial buffer. Contract: ScanJournal returns an error or
// calls fn, and never panics or hangs; fn sees only non-empty, valid
// JSON lines in increasing line order; a nil error means every
// non-empty line was delivered. Minimizing an input the size of the
// huge-line seed takes minutes at the default -fuzzminimizetime; a
// few seconds is enough.
func FuzzScanJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		calls, last := 0, 0
		err := ScanJournal(path, func(line int, raw []byte) error {
			if line <= last {
				t.Fatalf("line %d delivered after line %d", line, last)
			}
			last = line
			if len(raw) == 0 || !json.Valid(raw) {
				t.Fatalf("line %d delivered but not valid JSON: %q", line, raw)
			}
			calls++
			return nil
		})
		if err != nil {
			return
		}
		// Lines as bufio.ScanLines splits them: one trailing \r dropped.
		want := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				want++
			}
		}
		if calls != want {
			t.Fatalf("nil error after %d of %d non-empty lines", calls, want)
		}
	})
}

// FuzzOpenCheckpoint feeds arbitrary journal bytes, resumed or not, to
// openCheckpoint, which loads a campaign's completed shards on
// -resume. The seed corpus (testdata/fuzz/FuzzOpenCheckpoint) holds a
// valid journal, a torn tail, a record of a foreign campaign and an
// interior corruption. Contract: openCheckpoint returns an error or a
// journal, and never panics or hangs; a journal it opened reopens (as
// a resume) to the same done map, because opening only cuts a torn
// tail that replay already ignored, and a fresh start leaves an empty
// journal.
func FuzzOpenCheckpoint(f *testing.F) {
	const fingerprint = "5f2c"
	f.Fuzz(func(t *testing.T, data []byte, resume bool) {
		path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		done := map[int]ShardResult{}
		j, err := openCheckpoint(path, fingerprint, resume, done)
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if !resume && len(done) != 0 {
			t.Fatalf("a fresh start loaded %d shards", len(done))
		}
		again := map[int]ShardResult{}
		j, err = openCheckpoint(path, fingerprint, true, again)
		if err != nil {
			t.Fatalf("resume of a journal that opened cleanly: %v", err)
		}
		defer j.Close()
		if !reflect.DeepEqual(again, done) {
			t.Fatalf("reopen loaded %v, first open %v", again, done)
		}
	})
}
