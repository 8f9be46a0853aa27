package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"memlife/internal/campaign"
)

// Store layout inside one store directory (see DESIGN.md "Service"):
//
//	LOCK                  flock single-writer guard
//	jobs.jsonl            durable job journal (append-only, fsync/record)
//	results/<key>.json    finished result documents (atomic rename)
//	work/<key>.ckpt.jsonl per-job campaign checkpoints (crash resume)
const (
	resultsDirName = "results"
	workDirName    = "work"
	queueFileName  = "jobs.jsonl"
)

// ErrNotFound reports a result key with no stored document.
var ErrNotFound = errors.New("server: result not found")

// store is the content-addressed result store: one immutable JSON
// document per job key (spec.JobFingerprint). Documents are written
// via temp-file + fsync + rename, so readers — and a crash at any
// instant — observe either the whole document or nothing; a duplicate
// Put of the same key is a no-op overwrite with identical bytes.
type store struct {
	dir   string
	files campaign.Files // every write, fsync and rename of Put
}

// openStore prepares the directory tree of a store rooted at dir.
func openStore(dir string) (*store, error) {
	for _, d := range []string{dir, filepath.Join(dir, resultsDirName), filepath.Join(dir, workDirName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: create store dir: %w", err)
		}
	}
	return &store{dir: dir, files: campaign.OSFiles{}}, nil
}

// validKey reports whether key is a well-formed job fingerprint
// (lowercase hex, optionally "-s<seeds>"), rejecting anything that
// could escape the results directory when spliced into a path.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		default:
			return false
		}
	}
	return true
}

func (st *store) resultPath(key string) string {
	return filepath.Join(st.dir, resultsDirName, key+".json")
}

// ckptPath is the campaign checkpoint journal a running job writes.
func (st *store) ckptPath(key string) string {
	return filepath.Join(st.dir, workDirName, key+".ckpt.jsonl")
}

// queuePath is the durable job journal.
func (st *store) queuePath() string {
	return filepath.Join(st.dir, queueFileName)
}

// Get returns the stored result document for key, or ErrNotFound.
func (st *store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("server: invalid result key %q", key)
	}
	b, err := os.ReadFile(st.resultPath(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("server: read result %s: %w", key, err)
	}
	return b, nil
}

// Has reports whether key has a stored result.
func (st *store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	_, err := os.Stat(st.resultPath(key))
	return err == nil
}

// Put durably stores data under key: write a temp file in the results
// directory, fsync it, rename it into place, fsync the directory. It
// makes one attempt (fail-stop, see campaign.Journal). Every failure
// removes the temp file; a failed directory fsync also removes the
// renamed document, whose entry may not survive a crash. The queue runs
// a key once at a time, so the temp name needs no random part.
func (st *store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("server: invalid result key %q", key)
	}
	dir := filepath.Join(st.dir, resultsDirName)
	tmp := filepath.Join(dir, "."+key+".tmp")
	f, err := st.files.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: store result %s: %w", key, err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = st.files.Rename(tmp, st.resultPath(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: store result %s: %w", key, err)
	}
	if err := st.files.SyncDir(dir); err != nil {
		os.Remove(st.resultPath(key))
		return fmt.Errorf("server: store result %s: %w", key, err)
	}
	return nil
}

// Keys lists the stored result keys, sorted.
func (st *store) Keys() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(st.dir, resultsDirName))
	if err != nil {
		return nil, fmt.Errorf("server: list results: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(keys)
	return keys, nil
}

// RemoveCkpt deletes a finished job's checkpoint journal (missing is
// fine: single-shard jobs may never have written one).
func (st *store) RemoveCkpt(key string) error {
	err := os.Remove(st.ckptPath(key))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("server: remove checkpoint %s: %w", key, err)
	}
	return nil
}
