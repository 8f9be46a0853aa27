// Package mapping implements hardware mapping of trained weights onto
// crossbars: the baseline fresh-range mapping (Section II-B) and the
// paper's aging-aware mapping (Section IV-B), which estimates the aged
// range bounds from the traced 1-of-9 representative devices and picks
// the common resistance range by iterative, accuracy-driven selection
// (Fig. 8). Two simpler aged-range policies (worst-case and mean bound)
// are included as ablation baselines.
package mapping

import (
	"fmt"
	"sort"
	"time"

	"memlife/internal/crossbar"
	"memlife/internal/telemetry"
	"memlife/internal/tensor"
)

// PolicyKind selects how the common mapping range of each layer is set.
type PolicyKind int

const (
	// Fresh ignores aging and always maps onto the fresh device range —
	// the conventional mapping of the T+T and ST+T scenarios.
	Fresh PolicyKind = iota
	// AgingAware runs the paper's iterative selection: candidate upper
	// bounds are the traced aged bounds between R^L_aged,max and
	// R^U_aged,max; the one with the highest classification accuracy
	// wins (the AT of ST+AT).
	AgingAware
	// WorstCase uses the smallest traced aged upper bound (ablation).
	WorstCase
	// MeanBound uses the mean traced aged upper bound (ablation).
	MeanBound
)

// String names the policy for reports.
func (k PolicyKind) String() string {
	switch k {
	case Fresh:
		return "fresh"
	case AgingAware:
		return "aging-aware"
	case WorstCase:
		return "worst-case"
	case MeanBound:
		return "mean-bound"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// ParsePolicy is the inverse of PolicyKind.String; it is how scenario
// files and CLI flags name mapping policies.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "fresh":
		return Fresh, nil
	case "aging-aware":
		return AgingAware, nil
	case "worst-case":
		return WorstCase, nil
	case "mean-bound":
		return MeanBound, nil
	default:
		return 0, fmt.Errorf("mapping: unknown policy %q (want fresh, aging-aware, worst-case, or mean-bound)", s)
	}
}

// Config parameterizes mapping. The JSON tags are the schema of the
// "mapping" section of a scenario spec (internal/spec); Policy is
// excluded because the scenario (T+T / ST+T / ST+AT) or an explicit
// policy override decides it at run time.
type Config struct {
	Policy PolicyKind `json:"-"`
	// MaxCandidates bounds the number of candidate upper bounds the
	// iterative selection evaluates (evenly subsampled from the sorted
	// traced bounds). Zero means 8.
	MaxCandidates int `json:"max_candidates"`
	// MinLevels is the smallest number of quantization levels a
	// selected range may span. Zero means 4; 1 is rejected, since a
	// one-level range has zero width.
	MinLevels int `json:"min_levels"`
	// FaultAware makes the mapping tolerate permanently stuck devices
	// instead of fighting them: the common-range selection draws its
	// candidate bounds only from healthy traced devices (a stuck
	// cell's bound says nothing about the programmable range), and
	// programming skips stuck cells while compensating their fixed
	// current contribution through the healthy cells of the same
	// column (Crossbar.MapWeightsFaultAware). With no stuck devices
	// the mapping is identical to the fault-unaware one.
	FaultAware bool `json:"fault_aware"`
}

// Normalized returns the config with its "zero means X" fields
// resolved: MaxCandidates <= 0 -> 8, MinLevels <= 0 -> 4. Map applies
// it on entry; scenario specs serialize the resolved form
// (internal/spec.Defaults).
func (c Config) Normalized() Config {
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 8
	}
	if c.MinLevels <= 0 {
		c.MinLevels = 4
	}
	return c
}

// CandidateScore records one evaluated candidate of the iterative
// selection (the data behind Fig. 8).
type CandidateScore struct {
	RHi      float64
	Accuracy float64
}

// LayerSelection records the chosen range of one layer.
type LayerSelection struct {
	Layer      string
	RLo, RHi   float64
	Candidates []CandidateScore // non-empty only for AgingAware
}

// Result summarizes one mapping pass over a network.
type Result struct {
	Policy     PolicyKind
	Selections []LayerSelection
	Stats      crossbar.MapStatsTotal
}

// Map selects a common range per layer under cfg.Policy, programs every
// crossbar accordingly, and refreshes the host network with the
// effective weights. evalX/evalY are the labelled samples used to score
// candidates; they are required for the AgingAware policy and ignored
// otherwise.
//
// Every invocation emits one "mapping/map" trace span and bumps the
// mapping/* instruments (see telemetry.go).
func Map(mn *crossbar.MappedNetwork, cfg Config, evalX *tensor.Tensor, evalY []int) (Result, error) {
	sp := telemetry.StartSpan("mapping/map")
	remap := false
	if len(mn.Layers) > 0 {
		_, _, remap = mn.Layers[0].Crossbar.MapRange()
	}
	res, selectNs, err := mapNetwork(mn, cfg, evalX, evalY)
	candidates := 0
	for _, sel := range res.Selections {
		candidates += len(sel.Candidates)
	}
	recordMapTel(candidates, selectNs, err)
	sp.End(telemetry.Attrs{
		"policy":     res.Policy.String(),
		"layers":     len(res.Selections),
		"candidates": candidates,
		"remap":      remap,
	})
	return res, err
}

func mapNetwork(mn *crossbar.MappedNetwork, cfg Config, evalX *tensor.Tensor, evalY []int) (Result, time.Duration, error) {
	cfg = cfg.Normalized()
	res := Result{Policy: cfg.Policy}
	if cfg.MinLevels < 2 {
		return res, 0, fmt.Errorf("mapping: min levels must be 0 (default 4) or >= 2, got %d", cfg.MinLevels)
	}
	if cfg.Policy == AgingAware {
		if evalX == nil || len(evalY) == 0 {
			return res, 0, fmt.Errorf("mapping: aging-aware policy needs evaluation samples")
		}
		if n := evalX.Dim(0); len(evalY) != n {
			return res, 0, fmt.Errorf("mapping: %d evaluation labels for %d samples", len(evalY), n)
		}
	}
	start := time.Now()
	// Score candidates against software weights for all not-yet-mapped
	// layers; layers already processed keep their chosen quantized form.
	mn.RestoreSoftwareWeights()

	// act is the eval batch forwarded through mn.Net.Layers[:at]. Only
	// layer i's weights change between its candidates, so act is
	// extended to its NetIndex over the weights already committed, and
	// each candidate runs only Net.Layers[NetIndex:].
	act, at := evalX, 0
	for i, l := range mn.Layers {
		if cfg.Policy == AgingAware {
			act = mn.Net.ForwardRange(act, at, l.NetIndex, false)
			at = l.NetIndex
		}
		sel, err := selectRange(mn, i, cfg, act, evalY)
		if err != nil {
			return res, 0, fmt.Errorf("mapping: layer %s: %w", l.Name, err)
		}
		res.Selections = append(res.Selections, sel)
		// Commit this layer's hypothetical quantized weights so later
		// layers are scored against it (greedy sequential selection).
		l.Crossbar.QuantizeWeightsInto(l.Param.W, l.Target, sel.RLo, sel.RHi)
	}
	selectNs := time.Since(start)
	// Only now touch hardware: one programming pass per layer.
	for i, sel := range res.Selections {
		var s crossbar.MapStats
		if cfg.FaultAware {
			s = mn.MapLayerFaultAware(i, sel.RLo, sel.RHi)
		} else {
			s = mn.MapLayer(i, sel.RLo, sel.RHi)
		}
		res.Stats.Pulses += s.Pulses
		res.Stats.Stress += s.Stress
		res.Stats.Clipped += s.Clipped
		res.Stats.Stuck += s.Stuck
		res.Stats.Skipped += s.Skipped
	}
	// Reprogramming devices to their targets makes any drift-compensation
	// gains stale (tuning policy "recalib"); reset before the refresh so
	// the effective weights reflect the fresh programming.
	mn.ResetGains()
	if err := mn.Refresh(); err != nil {
		return res, selectNs, fmt.Errorf("mapping: %w", err)
	}
	return res, selectNs, nil
}

// selectRange chooses the common range of layer i. For AgingAware, act
// is the eval batch's activation at the input of Net.Layers[l.NetIndex].
func selectRange(mn *crossbar.MappedNetwork, i int, cfg Config, act *tensor.Tensor, evalY []int) (LayerSelection, error) {
	l := mn.Layers[i]
	p := l.Crossbar.Params()
	rLo := p.RminFresh
	minWidth := float64(cfg.MinLevels-1) * p.LevelSpacing()
	clampHi := func(hi float64) float64 {
		if hi > p.RmaxFresh {
			hi = p.RmaxFresh
		}
		if hi < rLo+minWidth {
			hi = rLo + minWidth
		}
		return hi
	}

	// The traced candidate bounds: fault-aware selection consults only
	// healthy traced devices.
	tracedBounds := func() []float64 {
		if cfg.FaultAware {
			return l.Crossbar.TracedUpperBoundsHealthy()
		}
		return l.Crossbar.TracedUpperBounds()
	}

	switch cfg.Policy {
	case Fresh:
		return LayerSelection{Layer: l.Name, RLo: rLo, RHi: p.RmaxFresh}, nil

	case WorstCase:
		ubs := tracedBounds()
		return LayerSelection{Layer: l.Name, RLo: rLo, RHi: clampHi(ubs[0])}, nil

	case MeanBound:
		ubs := tracedBounds()
		sum := 0.0
		for _, v := range ubs {
			sum += v
		}
		return LayerSelection{Layer: l.Name, RLo: rLo, RHi: clampHi(sum / float64(len(ubs)))}, nil

	case AgingAware:
		sel := LayerSelection{Layer: l.Name, RLo: rLo}
		// Snap candidate bounds down onto the level grid: ranges are
		// realized by the level circuitry, and snapping keeps the
		// selected range stable across mapping events until a traced
		// bound actually crosses a level — avoiding a full-array
		// reprogram (and its aging cost) on every remap.
		raw := tracedBounds()
		snapped := make([]float64, 0, len(raw))
		for _, hi := range raw {
			hi = clampHi(hi)
			lvl := int((hi - p.RminFresh) / p.LevelSpacing())
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= p.Levels {
				lvl = p.Levels - 1
			}
			snapped = append(snapped, clampHi(p.LevelResistance(lvl)))
		}
		sort.Float64s(snapped)
		candidates := candidateBounds(snapped, cfg.MaxCandidates)
		// Evaluate widest-first so ties keep the widest range (more
		// levels, lower currents).
		bestAcc := -1.0
		saved := l.Param.W.Clone()
		for i := len(candidates) - 1; i >= 0; i-- {
			hi := candidates[i]
			l.Crossbar.QuantizeWeightsInto(l.Param.W, l.Target, rLo, hi)
			acc := mn.Net.AccuracyFrom(l.NetIndex, act, evalY)
			sel.Candidates = append(sel.Candidates, CandidateScore{RHi: hi, Accuracy: acc})
			if acc > bestAcc {
				bestAcc = acc
				sel.RHi = hi
			}
		}
		l.Param.W.CopyFrom(saved)
		if sel.RHi == 0 {
			return sel, fmt.Errorf("no candidate ranges available")
		}
		return sel, nil

	default:
		return LayerSelection{}, fmt.Errorf("unknown policy %v", cfg.Policy)
	}
}

// candidateBounds deduplicates the sorted traced upper bounds and, when
// there are more than max, subsamples them evenly across
// [R^L_aged,max, R^U_aged,max] — the iteration interval of Fig. 8.
func candidateBounds(sorted []float64, max int) []float64 {
	uniq := sorted[:0:0]
	for _, v := range sorted {
		if len(uniq) == 0 || v > uniq[len(uniq)-1]+1e-9 {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= max {
		return uniq
	}
	if max == 1 {
		// Ties keep the widest range, so a single candidate is the widest.
		return uniq[len(uniq)-1:]
	}
	out := make([]float64, 0, max)
	for k := 0; k < max; k++ {
		idx := k * (len(uniq) - 1) / (max - 1)
		out = append(out, uniq[idx])
	}
	// Subsampling preserves order; dedupe again in case of collisions.
	sort.Float64s(out)
	dedup := out[:0]
	for _, v := range out {
		if len(dedup) == 0 || v > dedup[len(dedup)-1]+1e-9 {
			dedup = append(dedup, v)
		}
	}
	return dedup
}
