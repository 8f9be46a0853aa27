package device

import "math"

// Deterministic per-device pulse noise.
//
// The stochastic models need two kinds of draws: one fixed
// device-to-device factor per device (parameter scatter) and one fresh
// cycle-to-cycle factor per pulse (switching noise). Both must be pure
// functions of (device noise seed, lifetime pulse counter) so that
// results are bit-identical for every evaluation worker count —
// evaluation parallelism only touches the read path, pulses are always
// applied serially, and counter-keyed hashing removes any dependence on
// shared-RNG call order entirely. The draws are plain arithmetic
// (splitmix64 + Box-Muller), so the pulse hot path stays allocation-
// free with stochastic models too.

// splitmix64 is the splitmix64 finalizer, the repo's standard stateless
// seed mixer (see internal/campaign, internal/fleet).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unitFromBits maps 64 random bits to the open interval (0, 1): the top
// 53 bits as a float in [0,1) plus half an ulp so the Box-Muller log
// never sees zero.
func unitFromBits(b uint64) float64 {
	return (float64(b>>11) + 0.5) / (1 << 53)
}

// normalFromSeed derives one standard-normal draw from a hashed seed
// via Box-Muller over two derived uniforms.
func normalFromSeed(h uint64) float64 {
	u1 := unitFromBits(h)
	u2 := unitFromBits(splitmix64(h))
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// SeedNoise (re)derives the device's noise streams from seed: the
// per-pulse cycle-to-cycle stream key and, when the model has
// device-to-device variation, the device's fixed standard-normal draw.
// Crossbars seed every device from its (layer, index) position at
// construction, so the network-wide noise field is a pure function of
// the architecture. For models without variation this only stores the
// seed (draws are never consulted).
func (d *Device) SeedNoise(seed uint64) {
	d.noiseSeed = splitmix64(seed)
	d.noisy = d.p.Model.C2C > 0
	d.d2d = 0
	if d.p.Model.D2D > 0 {
		d.d2d = normalFromSeed(splitmix64(d.noiseSeed ^ 0xD2D0_5EED))
	}
}

// c2cDraw returns the standard-normal cycle-to-cycle draw of the
// device's next pulse: a pure function of the noise seed and the
// lifetime pulse counter.
func (d *Device) c2cDraw() float64 {
	return normalFromSeed(splitmix64(d.noiseSeed ^ uint64(d.pulses)*0x9E3779B97F4A7C15))
}
