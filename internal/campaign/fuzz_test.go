package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
