package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"memlife/internal/retry"
	"memlife/internal/telemetry"
)

// checkpointRecord is one line of the JSONL checkpoint journal: a
// completed shard with its metrics. The fingerprint ties the record to
// the spec that produced it; ElapsedMS is bookkeeping only and never
// enters the aggregated result (which must be byte-identical across
// runs and resumes).
type checkpointRecord struct {
	Fingerprint string  `json:"fingerprint"`
	Index       int     `json:"index"`
	Experiment  string  `json:"experiment"`
	SeedIndex   int     `json:"seed_index"`
	Seed        int64   `json:"seed"`
	Metrics     Metrics `json:"metrics"`
	ElapsedMS   int64   `json:"elapsed_ms"`
}

// ErrTornTail reports that a journal's final line was not valid JSON —
// the signature of a process killed mid-append. ScanJournal returns it
// alongside the successfully scanned prefix; callers that replay
// journals (checkpoint resume, the server's job queue) treat it as "the
// last append simply didn't happen".
var ErrTornTail = errors.New("torn final journal line")

// ScanJournal streams a JSONL journal, invoking fn for every
// syntactically valid line (1-based line numbers; empty lines are
// skipped). Its recovery contract is shared by every journal in the
// repo:
//
//   - a missing file is an empty journal (nil error, no calls);
//   - a malformed *final* line is a torn tail from a killed process:
//     the valid prefix is delivered and the scan returns ErrTornTail,
//     which replaying callers may ignore;
//   - a malformed *interior* line is corruption and aborts with an
//     error identifying the line;
//   - an fn error aborts the scan immediately and is returned as-is.
func ScanJournal(path string, fn func(line int, raw []byte) error) error {
	_, err := scanJournal(path, fn)
	return err
}

// scanJournal is ScanJournal that also returns the byte length of the
// journal's valid prefix: everything up to the end of its last whole
// line, which excludes a torn tail.
func scanJournal(path string, fn func(line int, raw []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("open journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var off, valid int64 // bytes consumed; end of the last whole line
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		off += int64(adv)
		return adv, tok, err
	})
	tornLine := 0 // last malformed line seen; interior if any line follows
	line := 0
	for sc.Scan() {
		line++
		if tornLine != 0 {
			// The malformed line was not the last one: corruption.
			return 0, fmt.Errorf("journal %s line %d: invalid JSON before end of file (corrupt journal)", path, tornLine)
		}
		raw := sc.Bytes()
		if len(raw) != 0 && !json.Valid(raw) {
			tornLine = line
			continue
		}
		valid = off
		if len(raw) == 0 {
			continue
		}
		if err := fn(line, raw); err != nil {
			return 0, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read journal %s: %w", path, err)
	}
	if tornLine != 0 {
		return valid, fmt.Errorf("journal %s line %d: %w", path, tornLine, ErrTornTail)
	}
	return valid, nil
}

// OpenJournal replays the journal at path through fn (nil replays
// nothing) and opens it for appending, creating it if needed: one scan
// serves both. A torn tail is cut off first, and a final whole line
// that lacks its newline gets one, so the next record starts a line of
// its own; appending after the torn bytes would turn them into interior
// corruption that the next replay rejects. An interior-corrupt journal
// or an fn error is an error. Shared by the checkpoint journal and the
// serve daemon's job journal.
func OpenJournal(path string, fn func(line int, raw []byte) error) (*os.File, error) {
	if fn == nil {
		fn = func(int, []byte) error { return nil }
	}
	valid, err := scanJournal(path, fn)
	if err != nil && !errors.Is(err, ErrTornTail) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := cutTornTail(f, valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("cut torn tail of journal %s: %w", path, err)
	}
	return f, nil
}

// cutTornTail truncates f to its valid prefix of length valid and ends
// that prefix with a newline, syncing any change.
func cutTornTail(f *os.File, valid int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	changed := st.Size() != valid
	if changed {
		if err := f.Truncate(valid); err != nil {
			return err
		}
	}
	if valid > 0 {
		last := []byte{0}
		if _, err := f.ReadAt(last, valid-1); err != nil {
			return err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				return err
			}
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return f.Sync()
}

// checkpointReplay returns the journal callback that loads the
// completed shards of the campaign identified by fingerprint into
// done, keyed by shard index. Records from other campaigns are an
// error (the journal belongs to a different spec).
func checkpointReplay(path, fingerprint string, done map[int]ShardResult) func(line int, raw []byte) error {
	return func(line int, raw []byte) error {
		var rec checkpointRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("campaign: checkpoint %s line %d: %w", path, line, err)
		}
		if rec.Fingerprint != fingerprint {
			return fmt.Errorf("campaign: checkpoint %s line %d belongs to a different campaign (fingerprint %s, want %s) — delete it or point -checkpoint elsewhere",
				path, line, rec.Fingerprint, fingerprint)
		}
		done[rec.Index] = ShardResult{
			Shard: Shard{
				Index:      rec.Index,
				Experiment: rec.Experiment,
				SeedIndex:  rec.SeedIndex,
				Seed:       rec.Seed,
			},
			Metrics: rec.Metrics,
		}
		return nil
	}
}

// journalRetry is the transient-I/O budget of every checkpoint append:
// short, capped, and deterministic (the jitter stream is seeded by the
// policy, not the clock).
var journalRetry = retry.Policy{
	MaxAttempts: 3,
	BaseDelay:   2 * time.Millisecond,
	MaxDelay:    20 * time.Millisecond,
	Jitter:      0.5,
	Seed:        1,
}

// journal appends completed-shard records to the checkpoint file,
// serialized across workers and synced per record so a killed process
// loses at most the shard it was mid-writing.
type journal struct {
	mu sync.Mutex
	f  *os.File
	// fsyncNs, when non-nil, observes the wall time of each append
	// (write + fsync) — the per-record durability cost.
	fsyncNs *telemetry.Histogram
}

// openCheckpoint opens the checkpoint journal at path for appending.
// A resumed campaign loads its completed shards into done in the same
// scan (a torn final line is a killed run's last append, and that
// shard simply re-runs). A fresh campaign starts a fresh journal, just
// as -json overwrites its output: appending to an older campaign's
// records would make the next resume reject the file.
func openCheckpoint(path, fingerprint string, resume bool, done map[int]ShardResult) (*journal, error) {
	var replay func(int, []byte) error
	if resume {
		replay = checkpointReplay(path, fingerprint, done)
	} else if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("campaign: start checkpoint journal: %w", err)
	}
	f, err := OpenJournal(path, replay)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

func (j *journal) append(rec checkpointRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: journal shard %d: %w", rec.Index, err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fsyncNs != nil {
		defer func(t0 time.Time) { j.fsyncNs.Observe(float64(time.Since(t0))) }(time.Now())
	}
	if err := AppendJournalLine(j.f, b); err != nil {
		return fmt.Errorf("campaign: journal shard %d: %w", rec.Index, err)
	}
	return nil
}

// AppendJournalLine writes one newline-terminated record and fsyncs
// it, retrying transient failures under a short capped-backoff budget.
// A failed write may have landed a partial line, which a later
// successful append would turn into *interior* corruption —
// unrecoverable by the ScanJournal torn-tail rule — so each retry
// first truncates the file back to the length it had before the
// attempt, restoring the append-only invariant that the journal is a
// sequence of whole lines plus at most one torn tail. Shared by the
// checkpoint journal and the serve daemon's job journal; callers
// serialize concurrent appends themselves.
func AppendJournalLine(f *os.File, b []byte) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	start := st.Size()
	return journalRetry.Do(context.Background(), func() error {
		if _, err := f.Write(b); err != nil {
			if terr := f.Truncate(start); terr != nil {
				// Can't roll back the partial write: give up now rather
				// than risk interior corruption on the next attempt.
				return retry.Permanent(fmt.Errorf("%v (rollback failed: %w)", err, terr))
			}
			return err
		}
		return f.Sync()
	})
}

func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
