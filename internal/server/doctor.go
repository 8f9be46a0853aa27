package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"memlife/internal/campaign"
)

// Doctor is the `memlife doctor` self-check: it audits a store
// directory — lock health, job-journal integrity, result-store
// integrity, checkpoint tails — entirely read-only, and writes a
// line-per-check report to w. It returns ok=false when it found
// corruption a daemon could not safely serve from (interior journal
// corruption, undecodable or mislabeled result documents); warnings
// (torn tails, stray temp files, orphan checkpoints) are expected
// crash leftovers the daemon recovers from by itself and do not fail
// the check.
func Doctor(dir string, w io.Writer) (ok bool, err error) {
	ok = true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL  "+format+"\n", args...)
	}
	warn := func(format string, args ...any) {
		fmt.Fprintf(w, "warn  "+format+"\n", args...)
	}
	pass := func(format string, args ...any) {
		fmt.Fprintf(w, "ok    "+format+"\n", args...)
	}

	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return false, fmt.Errorf("server: store %s is not a directory", dir)
	}
	st := &store{dir: dir}

	// Lock health: a held lock means a live daemon (flock dies with its
	// process, so there are no stale locks to detect).
	switch held, holder, lerr := lockHeld(dir); {
	case lerr != nil:
		fail("lock: %v", lerr)
	case held:
		warn("store is locked by a running process%s; auditing read-only alongside it", holder)
	default:
		pass("lock is free")
	}

	// Job journal: replay it exactly the way the daemon would.
	states := map[JobState]int{}
	jobs := map[string]JobState{}
	q := &queue{jobs: make(map[string]*Job)}
	jpath := st.queuePath()
	jerr := campaign.ScanJournal(jpath, q.replayer(jpath))
	switch {
	case jerr == nil:
	case errors.Is(jerr, campaign.ErrTornTail):
		warn("job journal has a torn final line (killed mid-append); the daemon will discard it")
	default:
		fail("job journal: %v", jerr)
	}
	for id, j := range q.jobs {
		states[j.State]++
		jobs[id] = j.State
	}
	pass("job journal replays: %d queued, %d done, %d failed",
		states[JobQueued], states[JobDone], states[JobFailed])

	// Device-physics surface: which device models, state-drift settings
	// and tuning policies the journaled jobs were computed under. Specs
	// are content-addressed, so results from different physics never
	// collide — this line just makes the mix visible to the operator.
	modelCounts := map[string]int{}
	drifted, policied := 0, 0
	for _, j := range q.jobs {
		var sp struct {
			Device struct {
				Model struct {
					Kind string `json:"kind"`
				} `json:"model"`
				Drift struct {
					Nu float64 `json:"nu"`
				} `json:"drift"`
			} `json:"device"`
			Lifetime struct {
				Tuning struct {
					Policy string `json:"policy"`
				} `json:"tuning"`
			} `json:"lifetime"`
		}
		if len(j.Spec) == 0 || json.Unmarshal(j.Spec, &sp) != nil {
			continue
		}
		kind := sp.Device.Model.Kind
		if kind == "" {
			kind = "linear"
		}
		modelCounts[kind]++
		if sp.Device.Drift.Nu != 0 {
			drifted++
		}
		if p := sp.Lifetime.Tuning.Policy; p != "" && p != "sign" {
			policied++
		}
	}
	if len(modelCounts) > 0 {
		kinds := make([]string, 0, len(modelCounts))
		for k := range modelCounts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s x%d", k, modelCounts[k]))
		}
		pass("device models across jobs: %s (%d with state drift, %d with drift-adaptive tuning policy)",
			strings.Join(parts, ", "), drifted, policied)
	}

	// Result store: every document must decode and carry the id its
	// filename claims — the content-addressing invariant.
	keys, kerr := st.Keys()
	if errors.Is(kerr, fs.ErrNotExist) {
		warn("store has no %s directory (a first boot cut short, or not a store)", resultsDirName)
		kerr = nil
	}
	if kerr != nil {
		return false, kerr
	}
	bad := 0
	for _, key := range keys {
		if !validKey(key) {
			fail("result %q: invalid store key", key)
			bad++
			continue
		}
		b, gerr := st.Get(key)
		if gerr != nil {
			fail("result %s: %v", key, gerr)
			bad++
			continue
		}
		var doc ResultDoc
		if derr := json.Unmarshal(b, &doc); derr != nil {
			fail("result %s: undecodable document: %v", key, derr)
			bad++
			continue
		}
		if doc.ID != key {
			fail("result %s: document claims id %q (store is mislabeled)", key, doc.ID)
			bad++
		}
	}
	if bad == 0 {
		pass("result store: %d document(s), all decode and match their keys", len(keys))
	}
	if tmp := strayTempFiles(filepath.Join(dir, resultsDirName)); len(tmp) > 0 {
		warn("result store has %d stray temp file(s) from an interrupted write (harmless): %s",
			len(tmp), strings.Join(tmp, ", "))
	}

	// Checkpoint journals: tails must be clean or torn-final-line only.
	// A failed job's checkpoint is what its resubmit resumes from;
	// checkpoints for done or unknown jobs are crash leftovers.
	ents, derr := os.ReadDir(filepath.Join(dir, workDirName))
	if derr != nil && !errors.Is(derr, os.ErrNotExist) {
		return false, fmt.Errorf("server: list checkpoints: %w", derr)
	}
	ckpts := 0
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt.jsonl") {
			continue
		}
		ckpts++
		key := strings.TrimSuffix(name, ".ckpt.jsonl")
		cerr := campaign.ScanJournal(filepath.Join(dir, workDirName, name), func(int, []byte) error { return nil })
		switch {
		case cerr == nil:
		case errors.Is(cerr, campaign.ErrTornTail):
			warn("checkpoint %s has a torn final line; the torn shard re-runs on resume", key)
		default:
			fail("checkpoint %s: %v", key, cerr)
		}
		switch state, known := jobs[key]; {
		case !known:
			warn("checkpoint %s belongs to no journaled job (stale; safe to delete)", key)
		case state == JobFailed:
			pass("checkpoint %s belongs to a failed job; kept for a resubmit to resume", key)
		case state == JobDone:
			warn("checkpoint %s belongs to a settled (%s) job (stale; safe to delete)", key, state)
		}
	}
	pass("checkpoints: %d journal(s) scanned", ckpts)

	// Cross-check: a done job should have its result on disk.
	missing := 0
	for id, state := range jobs {
		if state == JobDone && !st.Has(id) {
			fail("job %s is journaled done but has no stored result", id)
			missing++
		}
	}
	if missing == 0 && states[JobDone] > 0 {
		pass("every done job has its result document")
	}

	if ok {
		fmt.Fprintf(w, "doctor: store %s is healthy\n", dir)
	} else {
		fmt.Fprintf(w, "doctor: store %s has problems (see FAIL lines)\n", dir)
	}
	return ok, nil
}

// strayTempFiles lists leftover temp files from interrupted atomic
// writes (dot-prefixed, ".tmp" infix).
func strayTempFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".") && strings.Contains(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}
