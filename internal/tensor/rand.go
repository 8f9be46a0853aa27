package tensor

import (
	"math"
	"math/rand"
)

// RNG wraps a deterministic source of randomness used for weight
// initialization and synthetic data generation. All experiment code
// threads an *RNG explicitly so every run is reproducible from a seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a Gaussian sample with the given mean and stddev.
func (g *RNG) Normal(mean, std float64) float64 { return mean + std*g.r.NormFloat64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Split derives an independent child generator. Children created in the
// same order from the same parent are identical across runs.
func (g *RNG) Split() *RNG { return NewRNG(g.r.Int63()) }

// FillNormal fills t with Gaussian samples.
func (g *RNG) FillNormal(t *Tensor, mean, std float64) {
	for i := range t.data {
		t.data[i] = g.Normal(mean, std)
	}
}

// HeInit fills t with He-normal samples for the given fan-in. Suitable
// for ReLU layers.
func (g *RNG) HeInit(t *Tensor, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	g.FillNormal(t, 0, std)
}
