package experiments

import (
	"strings"

	"memlife/internal/lifetime"
)

// This file holds the key helpers of the campaign metric reducers,
// which flatten one run of an experiment into the flat metric map the
// campaign aggregates over seeds. Keys must be stable across seeds (no
// values inside keys that vary per run) so per-metric statistics group
// correctly.

// metricSlug derives a short, stable key fragment from a display name:
// lowercase, with runs of non-alphanumeric characters collapsed to
// single dashes ("LeNet-5 (MNIST)" -> "lenet-5-mnist"). The whole name
// participates — including any parenthesised qualifier — because
// distinct display names must map to distinct keys: the old slug
// stripped the qualifier and silently merged "MLP (MNIST)" and "MLP
// (CIFAR)" into one aggregated statistic. Dots survive (width
// qualifiers like "(x0.25)" use them); names without a qualifier keep
// their historical slugs ("LeNet-5" -> "lenet-5").
func metricSlug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.':
			if dash && b.Len() > 0 {
				b.WriteByte('-')
			}
			dash = false
			b.WriteRune(r)
		default:
			dash = true
		}
	}
	return b.String()
}

// scenarioSlug flattens a lifetime scenario name into a key fragment:
// "ST+AT" -> "stat".
func scenarioSlug(sc lifetime.Scenario) string {
	return strings.ToLower(strings.ReplaceAll(sc.String(), "+", ""))
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fig4Metrics summarises the single-device aging trajectory. It is
// deterministic (no RNG), which makes it the cheap vehicle for campaign
// plumbing tests: every seed must produce identical metrics.
func fig4Metrics(opt Options) (map[string]float64, error) {
	pts, err := Fig4(opt)
	if err != nil {
		return nil, err
	}
	first, last := pts[0], pts[len(pts)-1]
	return map[string]float64{
		"levels_fresh": float64(first.UsableLevels),
		"levels_final": float64(last.UsableLevels),
		"upper_final":  last.UpperBound,
		"lower_final":  last.LowerBound,
		"points":       float64(len(pts)),
	}, nil
}
