package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memlife/internal/telemetry"
)

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
// nothing) and opens it for appending through files, creating it if
// needed: one scan serves both. The parent directory is then fsynced,
// so the journal's entry survives a crash before its first record is
// ACKed (a process killed before that fsync leaves an entry the next
// open syncs). A torn tail is cut off first, and a final whole line
// that lacks its newline gets one, so the next record starts a line of
// its own; appending after the torn bytes would turn them into
// interior corruption that the next replay rejects. This cut is also
// what recovers from a failed Append. An interior-corrupt journal or
// an fn error is an error.
func OpenJournal(files Files, path string, fn func(line int, raw []byte) error) (*Journal, error) {
	if fn == nil {
		fn = func(int, []byte) error { return nil }
	}
	valid, err := scanJournal(path, fn)
	if err != nil && !errors.Is(err, ErrTornTail) {
		return nil, err
	}
	if err := cutTornTail(path, valid); err != nil {
		return nil, fmt.Errorf("cut torn tail of journal %s: %w", path, err)
	}
	f, err := files.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := files.SyncDir(filepath.Join(path, "..")); err != nil {
		f.Close()
		return nil, fmt.Errorf("sync directory of journal %s: %w", path, err)
	}
	return &Journal{f: f}, nil
}

// cutTornTail truncates the journal at path, if there is one, to its
// valid prefix of length valid and ends that prefix with a newline,
// syncing any change.
func cutTornTail(path string, valid int64) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	last := []byte{'\n'}
	if valid > 0 {
		if _, err := f.ReadAt(last, valid-1); err != nil {
			return err
		}
	}
	if st.Size() == valid && last[0] == '\n' {
		return nil
	}
	if err := f.Truncate(valid); err != nil {
		return err
	}
	if last[0] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Journal is an append-only JSONL journal, held by the campaign
// checkpoint and by the serve daemon's job queue. Appends are
// serialized, and each is written and fsynced before Append returns.
// A failed write or fsync is permanent (fail-stop, DESIGN.md §8): after
// a failed fsync the kernel may drop the dirty pages and clear the
// error, so a retry can succeed without the record on disk. The failing
// Append and every later one return the same error and write nothing.
type Journal struct {
	mu      sync.Mutex
	f       File
	err     error                // the first write or fsync failure
	fsyncNs *telemetry.Histogram // if set, times each write + fsync
}

// Append writes v as one JSON line and fsyncs it.
func (j *Journal) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.fsyncNs != nil {
		defer func(t0 time.Time) { j.fsyncNs.Observe(float64(time.Since(t0))) }(time.Now())
	}
	if _, j.err = j.f.Write(append(b, '\n')); j.err == nil {
		j.err = j.f.Sync()
	}
	return j.err
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Files is the file I/O a crash can tear or lose. Journals and the
// serve daemon's store (its directories and result documents) write
// through it, so that tests can fail or record each operation; OSFiles
// is the real file system.
type Files interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Mkdir(name string, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
}

// File is a file opened for writing through Files.
type File interface {
	io.WriteCloser
	Sync() error
}

// OSFiles is Files on the operating system's file system.
type OSFiles struct{}

func (OSFiles) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (OSFiles) Mkdir(name string, perm fs.FileMode) error { return os.Mkdir(name, perm) }

func (OSFiles) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir fsyncs dir, so entries created or renamed in it survive a
// crash.
func (OSFiles) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
