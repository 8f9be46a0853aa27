package crossbar

import (
	"errors"
	"fmt"

	"memlife/internal/tensor"
)

// ErrNotMapped is returned by the read path (ReadWeightsInto) when the
// array has never been programmed with MapWeights:
// there is no mapping range, so resistances cannot be interpreted as
// weights.
var ErrNotMapped = errors.New("crossbar: read before MapWeights")

// The cached read path.
//
// Every read of the array (ReadWeightsInto) is served from a
// materialized effective-weight matrix that is computed once and then
// kept current incrementally:
//
//   - StepDevices patches each cell a pulse moved.
//   - AdvanceFaults patches the cells of newly stuck devices.
//   - MapWeights / MapWeightsFaultAware / SetFaultInjector / Drift /
//     AddStress / RandomizeAging / the public Device accessor
//     invalidate the whole cache; the next read rebuilds it.
//   - Read-burst noise (fault injection) is applied per read without
//     touching the cache: a burst-affected read recomputes noisy values
//     from device state directly, and the clean cache survives.
//
// Cell values are EffectiveWeight(r, ...) — a pure function of the
// device resistance and the mapping ranges — so a patched cache is
// bit-identical to a full recompute; TestEquivalence* and
// FuzzCacheInvalidation in this package prove it against the naive
// oracle (EffectiveWeightsNaive, in the package tests).

// invalidate drops the materialized matrix; the next read rebuilds it.
func (c *Crossbar) invalidate() { c.effValid = false }

// ensure (re)builds the effective-weight matrix.
func (c *Crossbar) ensure() {
	if c.effValid {
		c.tel.cacheHits.Inc()
		return
	}
	c.tel.cacheMisses.Inc()
	if c.eff == nil {
		c.eff = tensor.New(c.Rows, c.Cols)
	}
	ed := c.eff.Data()
	for idx, d := range c.devices {
		ed[idx] = EffectiveWeight(d.Resistance(), c.wMin, c.wMax, c.rLo, c.rHi)
	}
	c.effValid = true
}

// patch refreshes the cached value of cell (i, j) after its device
// moved (tuning pulse) or stuck (wear-out). A no-op while the cache is
// invalid or the array unmapped — the next ensure recomputes anyway.
func (c *Crossbar) patch(i, j int) {
	if !c.effValid || !c.mapped {
		return
	}
	c.eff.Data()[i*c.Cols+j] = EffectiveWeight(c.at(i, j).Resistance(), c.wMin, c.wMax, c.rLo, c.rHi)
}

// ReadWeightsInto copies one readback of the effective weight matrix
// into dst without allocating (dst must hold Rows*Cols elements,
// row-major). Stuck devices read at their pinned resistance, so dst
// receives the fault-aware truth of what the hardware computes. This is
// the hot path of MappedNetwork.Refresh: with a warm cache it is a
// single memcpy instead of a per-device conductance inversion. When the
// attached fault injector fires a read-noise burst, every device's
// resistance is instead perturbed by a fresh multiplicative draw before
// conversion, leaving device state and the cache untouched. Returns
// ErrNotMapped before the first MapWeights.
func (c *Crossbar) ReadWeightsInto(dst *tensor.Tensor) error {
	if !c.mapped {
		return ErrNotMapped
	}
	if dst.Size() != c.Rows*c.Cols {
		return fmt.Errorf("crossbar: readback into size %d, want %d", dst.Size(), c.Rows*c.Cols)
	}
	if burst, sigma := c.readBurst(); burst {
		d := dst.Data()
		for idx, dev := range c.devices {
			r := dev.Resistance() * c.inj.ReadNoise(sigma)
			d[idx] = EffectiveWeight(r, c.wMin, c.wMax, c.rLo, c.rHi)
		}
		return nil
	}
	c.ensure()
	copy(dst.Data(), c.eff.Data())
	return nil
}

// readBurst draws one readback-event decision from the injector.
func (c *Crossbar) readBurst() (bool, float64) {
	if c.inj == nil {
		return false, 0
	}
	return c.inj.ReadBurst()
}
