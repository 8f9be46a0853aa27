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

// ReadWeightsInto writes one readback of the effective weight matrix
// into dst without allocating (dst must hold Rows*Cols elements,
// row-major). Every cell is recomputed from device state: the eq. (4)
// inverse EffectiveWeight of the device's resistance under the current
// mapping ranges. Stuck devices read at their pinned resistance, so dst
// receives the fault-aware truth of what the hardware computes. When
// the attached fault injector fires a read-noise burst, every device's
// resistance is instead perturbed by a fresh multiplicative draw before
// conversion, leaving device state untouched. Returns ErrNotMapped
// before the first MapWeights.
func (c *Crossbar) ReadWeightsInto(dst *tensor.Tensor) error {
	if !c.mapped {
		return ErrNotMapped
	}
	if dst.Size() != c.Rows*c.Cols {
		return fmt.Errorf("crossbar: readback into size %d, want %d", dst.Size(), c.Rows*c.Cols)
	}
	burst, sigma := c.readBurst()
	conv := newMapConv(c.wMin, c.wMax, c.rLo, c.rHi)
	d := dst.Data()
	for idx, dev := range c.devices {
		r := dev.Resistance()
		if burst {
			r *= c.inj.ReadNoise(sigma)
		}
		d[idx] = conv.eff(r)
	}
	return nil
}

// readBurst draws one readback-event decision from the injector.
func (c *Crossbar) readBurst() (bool, float64) {
	if c.inj == nil {
		return false, 0
	}
	return c.inj.ReadBurst()
}
