// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section V), plus ablation studies of the design
// choices called out in DESIGN.md. Each driver regenerates the rows or
// series the paper reports, printed as plain text; EXPERIMENTS.md
// records paper-vs-measured for each.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Options controls experiment scale.
type Options struct {
	// Fast shrinks networks, datasets and budgets so an experiment
	// finishes in seconds (used by tests and benches). Full mode
	// reproduces the reported numbers.
	Fast bool
	// Seed makes runs reproducible.
	Seed int64
	// Log receives training/simulation progress; nil silences it.
	// When experiments run concurrently (campaign shards, parallel
	// -all), pass per-shard views of a campaign.SyncWriter so lines
	// never interleave.
	Log io.Writer
	// Ctx carries cancellation for long runs; nil means Background.
	// Drivers check it between heavy stages and thread it into the
	// lifetime simulations.
	Ctx context.Context
}

// Context returns the options' context, never nil.
func (o Options) Context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Err reports the context's cancellation state (nil when no context).
func (o Options) Err() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Experiment is one runnable reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, opt Options) error
	// Metrics, when non-nil, runs the experiment and reduces it to
	// scalar metrics — the hook that makes the experiment campaign-
	// runnable (multi-seed aggregation with confidence intervals).
	Metrics func(opt Options) (map[string]float64, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
