package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"memlife/internal/analysis"
)

// Aggregate is the cross-seed statistics of one metric of one
// experiment: mean, sample standard deviation, and the 95% confidence
// half-width of the mean (Student-t), plus the observed range.
type Aggregate struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	N          int     `json:"n"`
	Mean       float64 `json:"mean"`
	Std        float64 `json:"std"`
	CI95       float64 `json:"ci95"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	// Quantiles is the sketch summary of the metric's distribution,
	// present only for streaming campaigns (Config.Stream), so
	// buffered output keeps its historical bytes.
	Quantiles *Quantiles `json:"quantiles,omitempty"`
}

// Quantiles summarizes a metric's distribution from the streaming
// quantile sketch. Estimates carry the sketch's relative error bound
// (analysis.SketchRelError, ≈ 2.5%).
type Quantiles struct {
	P01 float64 `json:"p01"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// aggregator folds completed shards into per-(experiment, metric)
// Online accumulators and quantile sketches — O(metrics x buckets)
// memory however many seeds the campaign runs. The engine's drain feeds
// it every shard, resumed or fresh, in index order, so each metric's
// values reach its accumulator in the same order whatever the worker
// count, completion order or resume history: the output bytes are
// schedule-independent.
type aggregator struct {
	stats map[aggKey]*aggStat
}

type aggKey struct{ exp, metric string }

type aggStat struct {
	online analysis.Online
	sketch *analysis.Sketch
}

func newAggregator() *aggregator {
	return &aggregator{stats: make(map[aggKey]*aggStat)}
}

// add folds one shard's metrics in. Map iteration order is irrelevant:
// each metric name feeds its own accumulator exactly once per shard,
// so every per-key sequence is ordered by shard index alone. Steady
// state (every key seen) allocates nothing.
func (a *aggregator) add(exp string, m Metrics) {
	for name, v := range m {
		k := aggKey{exp, name}
		st, ok := a.stats[k]
		if !ok {
			st = &aggStat{sketch: analysis.NewSketch()}
			a.stats[k] = st
		}
		st.online.Add(v)
		st.sketch.Add(v)
	}
}

// aggregates renders the canonical aggregate list, ordered by
// (experiment, metric). The sketch's quantile summary is attached only
// when quantiles is set (streaming campaigns), so buffered output keeps
// its historical bytes.
func (a *aggregator) aggregates(quantiles bool) []Aggregate {
	keys := make([]aggKey, 0, len(a.stats))
	for k := range a.stats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].exp != keys[j].exp {
			return keys[i].exp < keys[j].exp
		}
		return keys[i].metric < keys[j].metric
	})
	out := make([]Aggregate, 0, len(keys))
	for _, k := range keys {
		st := a.stats[k]
		ci := st.online.MeanCI()
		agg := Aggregate{
			Experiment: k.exp,
			Metric:     k.metric,
			N:          ci.N,
			Mean:       ci.Mean,
			Std:        ci.Std,
			CI95:       ci.CI95,
			Min:        st.online.Min(),
			Max:        st.online.Max(),
		}
		if quantiles {
			agg.Quantiles = &Quantiles{
				P01: st.sketch.Quantile(0.01),
				P50: st.sketch.Quantile(0.50),
				P90: st.sketch.Quantile(0.90),
				P99: st.sketch.Quantile(0.99),
			}
		}
		out = append(out, agg)
	}
	return out
}

// WriteJSON writes the canonical JSON form of the result: indented,
// deterministic (map keys sorted by encoding/json, shards by index,
// aggregates by name), newline-terminated.
func (r *Result) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: marshal result: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// RenderText prints the aggregate table in the experiments' plain-text
// style: one row per (experiment, metric) with mean ± 95% CI.
func (r *Result) RenderText(w io.Writer) {
	fmt.Fprintf(w, "Campaign — %d experiment(s) x %d seed(s), base seed %d\n",
		len(r.Spec.Experiments), r.Spec.Seeds, r.Spec.BaseSeed)
	var cells [][]string
	for _, a := range r.Aggregates {
		cells = append(cells, []string{
			a.Experiment, a.Metric,
			fmt.Sprintf("%d", a.N),
			fmt.Sprintf("%.6g", a.Mean),
			fmt.Sprintf("%.6g", a.CI95),
			fmt.Sprintf("%.6g", a.Std),
			fmt.Sprintf("%.6g", a.Min),
			fmt.Sprintf("%.6g", a.Max),
		})
	}
	fmt.Fprint(w, analysis.Table(
		[]string{"experiment", "metric", "n", "mean", "ci95", "std", "min", "max"},
		cells))
}
