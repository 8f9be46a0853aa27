package fleet

import "math"

// rng is a splitmix64 stream — the same mixing discipline
// internal/campaign uses for shard-seed derivation, inlined here so
// the tick path stays allocation- and interface-free.
type rng struct{ s uint64 }

func newRNG(seed int64) rng { return rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// hashKey is a stateless splitmix64 finalizer used for hash-affinity
// routing (deterministic, independent of the arrival stream).
func hashKey(key int32) uint64 {
	return mix(uint64(key) + 0x9E3779B97F4A7C15)
}

// traffic generates the synthetic request stream: a deterministic load
// envelope (diurnal sinusoid, bursty square wave, or steady) with a
// stochastic fractional remainder, and a Zipf-skewed key mix sampled
// by binary search over precomputed cumulative weights. All state is
// preallocated; generating a tick's arrivals allocates nothing.
type traffic struct {
	cfg Traffic
	cum []float64 // cumulative key weights, cum[len-1] == 1
}

func newTraffic(cfg Traffic) *traffic {
	t := &traffic{cfg: cfg, cum: make([]float64, cfg.Keys)}
	sum := 0.0
	for k := 0; k < cfg.Keys; k++ {
		w := math.Pow(float64(k+1), -zipfS)
		sum += w
		t.cum[k] = sum
	}
	for k := range t.cum {
		t.cum[k] /= sum
	}
	t.cum[len(t.cum)-1] = 1 // guard against rounding
	return t
}

// load returns the deterministic arrival-rate envelope at tick tk.
func (t *traffic) load(tk int64) float64 {
	switch t.cfg.Pattern {
	case PatternDiurnal:
		phase := 2 * math.Pi * float64(tk%int64(t.cfg.PeriodTicks)) / float64(t.cfg.PeriodTicks)
		return t.cfg.Load * (1 + peakFactor*math.Sin(phase))
	case PatternBursty:
		period := int64(burstOn + burstOff)
		if tk%period < int64(burstOn) {
			return t.cfg.Load * burstFactor
		}
		return t.cfg.Load
	default: // PatternZipf: steady envelope, skew in the key mix
		return t.cfg.Load
	}
}

// arrivals returns the request count for tick tk: the integer part of
// the envelope plus a Bernoulli draw on the fractional remainder, so
// the expected rate matches the envelope exactly.
func (t *traffic) arrivals(tk int64, r *rng) int {
	rate := t.load(tk)
	n := int(rate)
	if r.float64() < rate-float64(n) {
		n++
	}
	return n
}

// sampleKey draws one request class from the key mix.
func (t *traffic) sampleKey(r *rng) int32 {
	u := r.float64()
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}
