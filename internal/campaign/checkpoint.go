package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
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

// openCheckpoint opens the checkpoint journal at path for appending.
// A resumed campaign loads its completed shards into done in the same
// scan (a torn final line is a killed run's last append, and that
// shard simply re-runs). A fresh campaign starts a fresh journal, just
// as -json overwrites its output: appending to an older campaign's
// records would make the next resume reject the file.
func openCheckpoint(path, fingerprint string, resume bool, done map[int]ShardResult) (*Journal, error) {
	var replay func(int, []byte) error
	if resume {
		replay = checkpointReplay(path, fingerprint, done)
	} else if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("campaign: start checkpoint journal: %w", err)
	}
	return OpenJournal(OSFiles{}, path, replay)
}
