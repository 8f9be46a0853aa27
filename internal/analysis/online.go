package analysis

import "math"

// Online is a constant-memory streaming accumulator for the statistics
// of a sample: mean, sample standard deviation, 95% confidence
// half-width, and the observed range.
//
// The mean is a plain running sum divided by n — the summation order
// of a two-pass formula — and the dispersion is Welford's online M2
// recurrence. Results depend only on the values and their order, so
// feeding the same values in the same order always yields the same
// bits: the campaign engine folds shards in index order to make its
// output schedule-independent.
//
// The zero value is an empty accumulator, ready for Add.
type Online struct {
	n    int
	sum  float64 // running sum; mean = sum/n, matching two-pass order
	mean float64 // Welford running mean (drives m2 only)
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(v float64) {
	o.n++
	o.sum += v
	d := v - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (v - o.mean)
	if o.n == 1 {
		o.min, o.max = v, v
		return
	}
	if v < o.min {
		o.min = v
	}
	if v > o.max {
		o.max = v
	}
}

// N returns the number of observations folded in so far.
func (o *Online) N() int { return o.n }

// Min returns the smallest observation (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 when empty).
func (o *Online) Max() float64 { return o.max }

// MeanCI returns the accumulated statistics. It panics when no
// observation has been added; a single observation yields
// Std = CI95 = 0.
func (o *Online) MeanCI() MeanCI {
	if o.n == 0 {
		panic("analysis: MeanCI of empty Online accumulator")
	}
	out := MeanCI{N: o.n, Mean: o.sum / float64(o.n)}
	if o.n < 2 {
		return out
	}
	out.Std = math.Sqrt(o.m2 / float64(o.n-1))
	out.CI95 = tCrit95(o.n-1) * out.Std / math.Sqrt(float64(o.n))
	return out
}
