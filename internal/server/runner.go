package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"memlife/internal/campaign"
	"memlife/internal/experiments"
	"memlife/internal/spec"
)

// ResultDoc is the stored result document: the job identity, the
// resolved spec it ran, and the campaign result (canonical JSON, so
// the whole document is byte-deterministic — no timestamps, no
// scheduling artifacts). `memlife doctor` verifies the embedded id
// against the store filename.
type ResultDoc struct {
	ID     string          `json:"id"`
	Seeds  int             `json:"seeds"`
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// scenarioRunner is the production Runner: one job = one campaign of
// the submitted spec across its seed count, checkpointed into the
// store's work directory. Resume is always on — after a crash the same
// checkpoint picks up completed shards, and the campaign engine's
// byte-identical aggregation guarantees the resumed result equals an
// uninterrupted run's. Duplicate fixtures across concurrent jobs share
// trained bundles through the experiments singleflight cache.
func scenarioRunner(st *store, shardWorkers int, log io.Writer) Runner {
	return func(ctx context.Context, job Job) ([]byte, error) {
		s, err := spec.ResolveBytes(job.Spec, spec.Overrides{})
		if err != nil {
			return nil, err
		}
		cs := campaign.Spec{
			Experiments: []string{experiments.ScenarioExperiment},
			Seeds:       job.Seeds,
			BaseSeed:    s.Run.Seed,
			Fast:        s.Run.Fast,
			ConfigHash:  job.ID,
		}
		cfg := campaign.Config{
			Workers:        shardWorkers,
			Resolve:        experiments.ScenarioResolver(s),
			CheckpointPath: st.ckptPath(job.ID),
			Resume:         true,
			Log:            log,
		}
		res, err := campaign.Run(ctx, cs, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("server: encode campaign result: %w", err)
		}
		return marshalResultDoc(ResultDoc{
			ID:     job.ID,
			Seeds:  job.Seeds,
			Spec:   job.Spec,
			Result: json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n")),
		})
	}
}

// marshalResultDoc encodes a result document with a trailing newline.
func marshalResultDoc(doc ResultDoc) ([]byte, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("server: encode result doc: %w", err)
	}
	return append(b, '\n'), nil
}
