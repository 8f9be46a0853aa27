// Package crossbar simulates memristor crossbar arrays implementing the
// vector-matrix multiplications of a neural network (Fig. 1 of the
// paper), including weight-to-conductance mapping (eq. (4)),
// quantization onto the level grid, per-device aging state, and the
// 1-of-9 representative tracing of Section IV-B.
package crossbar

import (
	"fmt"
	"math"
	"sort"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/tensor"
)

// Crossbar is one rows x cols array of memristors implementing a weight
// matrix W[rows][cols]: g_ij carries the weight from input i to output
// j, and a column sums its devices' currents (I_j = sum_i V_i * g_ij).
type Crossbar struct {
	Rows, Cols int

	params device.Params
	model  aging.Model
	tempK  float64

	devices []*device.Device

	// inj, when non-nil, injects device faults: it decides transient
	// programming failures on the pulse path and read-noise bursts on
	// the readback path, and supplies the wear-out hazard consulted by
	// AdvanceFaults. See internal/fault.
	inj *fault.Injector

	// traceStride is the spacing of the representative traced devices
	// (Section IV-B traces the center of every traceStride x
	// traceStride block; the paper's value is 3, i.e. 1 of 9).
	traceStride int

	// Mapping state of the most recent MapWeights call (eq. (4)).
	wMin, wMax float64
	rLo, rHi   float64
	mapped     bool

	// tel is the telemetry handle set (see telemetry.go); all-nil when
	// telemetry is disabled, making every instrumented site a no-op.
	tel crossbarTel

	// grid is the shared device-technology lookup table (level grid and
	// derived constants) the mapping/quantization hot paths read from.
	grid *device.Grid

	// Aged-bounds memo (see hot.go): per-device cached [lo, hi] window
	// keyed by the exact stress it was computed at (NaN: never
	// computed), over the evaluator of the array's fixed temperature.
	bEval   aging.Evaluator
	bStress []float64
	bLo     []float64
	bHi     []float64
}

// New constructs a fresh crossbar.
func New(rows, cols int, p device.Params, m aging.Model, tempK float64) (*Crossbar, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("crossbar: dimensions must be positive, got %dx%d", rows, cols)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if tempK <= 0 {
		return nil, fmt.Errorf("crossbar: temperature must be positive, got %g K", tempK)
	}
	cb := &Crossbar{
		Rows: rows, Cols: cols,
		params: p, model: m, tempK: tempK,
		devices:     make([]*device.Device, rows*cols),
		traceStride: 3,
		tel:         newCrossbarTel(),
		grid:        p.Grid(),
		bEval:       m.Evaluator(p, tempK),
	}
	for i := range cb.devices {
		cb.devices[i] = device.New(p)
		cb.devices[i].SeedNoise(uint64(i))
	}
	return cb, nil
}

// SeedDeviceNoise re-derives every device's deterministic noise streams
// from base + its row-major index. MappedNetwork seeds each layer's
// crossbar with a distinct base so device-to-device draws decorrelate
// across layers; for models without variation the draws are never
// consulted and reseeding is behavior-free.
func (c *Crossbar) SeedDeviceNoise(base uint64) {
	for i, d := range c.devices {
		d.SeedNoise(base + uint64(i))
	}
}

// Params returns the device technology parameters.
func (c *Crossbar) Params() device.Params { return c.params }

// Model returns the aging model.
func (c *Crossbar) Model() aging.Model { return c.model }

// TempK returns the operating temperature.
func (c *Crossbar) TempK() float64 { return c.tempK }

// Device returns the device at row i, column j.
func (c *Crossbar) Device(i, j int) *device.Device {
	return c.devices[i*c.Cols+j]
}

// AgedBounds returns the true aged resistance window of device (i, j)
// per eq. (6)/(7), from its actual accumulated stress. Served through
// the per-device memo (see hot.go), bit-identical to the direct
// model.Bounds computation.
func (c *Crossbar) AgedBounds(i, j int) (lo, hi float64) {
	return c.agedBoundsIdx(i*c.Cols + j)
}

// MapRange returns the common resistance range [rLo, rHi] used by the
// last MapWeights call. ok is false before any mapping.
func (c *Crossbar) MapRange() (rLo, rHi float64, ok bool) {
	return c.rLo, c.rHi, c.mapped
}

// WeightRange returns the [wMin, wMax] window of the last mapping.
func (c *Crossbar) WeightRange() (wMin, wMax float64, ok bool) {
	return c.wMin, c.wMax, c.mapped
}

// TargetResistance converts weight w to its target resistance under
// eq. (4) with the mapping ranges [wMin,wMax] -> [gMin,gMax], where
// gMin = 1/rHi and gMax = 1/rLo. Degenerate weight ranges map to gMin.
// Weights outside [wMin, wMax] (possible through fault-compensation
// offsets) clamp to the range edge: the periphery cannot program a
// conductance outside the selected range, and without the clamp a far
// outlier would extrapolate to a non-physical negative conductance.
// The result is therefore always in [rLo, rHi].
func TargetResistance(w, wMin, wMax, rLo, rHi float64) float64 {
	gMin, gMax := 1/rHi, 1/rLo
	if wMax <= wMin {
		return rHi
	}
	g := (gMax-gMin)/(wMax-wMin)*(w-wMin) + gMin
	if g < gMin {
		g = gMin
	} else if g > gMax {
		g = gMax
	}
	return 1 / g
}

// EffectiveWeight inverts eq. (4): the weight actually realized by a
// device programmed to resistance r under the given mapping ranges.
func EffectiveWeight(r, wMin, wMax, rLo, rHi float64) float64 {
	gMin, gMax := 1/rHi, 1/rLo
	if gMax <= gMin {
		return wMin
	}
	g := 1 / r
	return (g-gMin)/(gMax-gMin)*(wMax-wMin) + wMin
}

// MapStats reports the cost of one MapWeights call.
type MapStats struct {
	Pulses  int
	Stress  float64
	Clipped int // devices whose target fell outside their aged window
	Stuck   int // write attempts that hit a permanently stuck device
	Skipped int // stuck devices excluded up front (fault-aware mapping)
}

// MapWeights programs the trained weight matrix w (shape [Rows, Cols])
// into the array using the common resistance range [rLo, rHi] (eq. (4)).
// Each device is programmed within its own true aged window, so targets
// beyond a worn device's reach are clipped (Fig. 4) and counted.
func (c *Crossbar) MapWeights(w *tensor.Tensor, rLo, rHi float64) MapStats {
	if w.Dim(0) != c.Rows || w.Dim(1) != c.Cols {
		panic(fmt.Sprintf("crossbar: weight shape %v, want [%d %d]", w.Shape(), c.Rows, c.Cols))
	}
	if rLo <= 0 || rHi <= rLo {
		panic(fmt.Sprintf("crossbar: invalid mapping range [%g, %g]", rLo, rHi))
	}
	wMin, wMax := w.MinMax()
	c.wMin, c.wMax = wMin, wMax
	c.rLo, c.rHi = rLo, rHi
	c.mapped = true

	var stats MapStats
	usable := usableAccum{track: c.tel.usableMean != nil}
	conv := newMapConv(wMin, wMax, rLo, rHi)
	wd := w.Data()
	// Devices are row-major like w's backing slice, so the flat walk
	// visits (i, j) pairs in exactly the order of the nested loops.
	for idx, d := range c.devices {
		target := conv.target(wd[idx])
		lo, hi := c.agedBoundsIdx(idx)
		usable.observe(c.params, lo, hi)
		res := d.Program(target, lo, hi)
		stats.Pulses += res.Pulses
		stats.Stress += res.Stress
		if res.Clipped {
			stats.Clipped++
		}
		if res.Stuck {
			stats.Stuck++
		}
	}
	c.recordMapTel(stats, usable)
	return stats
}

// RandomizeAging assigns every device a lognormal endurance-variability
// factor exp(N(0, sigma)), modelling device-to-device process variation
// in aging rates. Call once on a fresh array.
func (c *Crossbar) RandomizeAging(sigma float64, rng *tensor.RNG) {
	if sigma < 0 {
		panic(fmt.Sprintf("crossbar: negative aging variability %g", sigma))
	}
	for _, d := range c.devices {
		d.SetAgingFactor(math.Exp(rng.Normal(0, sigma)))
	}
}

// AddStress injects burn-in stress into every device (scaled by each
// device's aging factor), modelling an array that has already lived
// part of its life.
func (c *Crossbar) AddStress(s float64) {
	for _, d := range c.devices {
		d.AddStress(s)
	}
}

// Drift perturbs every device's resistance by Gaussian noise whose
// standard deviation is *relative* to the device's current resistance
// (sigma = 0.05 means 5% of R), clamped to its aged window.
// Proportional drift is the physical form of read disturb — every
// device's state moves by the same relative amount wherever it sits in
// the range. This recoverable drift ([8]) is what makes periodic
// re-tuning necessary in the first place.
func (c *Crossbar) Drift(sigma float64, rng *tensor.RNG) {
	if sigma < 0 {
		panic(fmt.Sprintf("crossbar: negative drift sigma %g", sigma))
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			d := c.Device(i, j)
			lo, hi := c.AgedBounds(i, j)
			d.Drift(rng.Normal(0, sigma*d.Resistance()), lo, hi)
		}
	}
}

// StateDrift applies one interval of spontaneous conductance state
// drift (device.DriftSpec): every healthy device's conductance
// excursion above the model's minimum decays by the multiplicative
// factor — G <- gMin + (G - gMin) * factor — clamped to the device's
// aged window like recoverable read-disturb drift. Unlike Drift this is
// fully deterministic (the power law needs no randomness), and unlike
// aging it moves state, not bounds: it is the retention loss that
// scale-recalibration policies compensate without reprogramming.
// A factor of 1 (or outside (0, 1]) is a no-op.
func (c *Crossbar) StateDrift(factor float64) {
	if !(factor > 0 && factor < 1) {
		return
	}
	gMin := c.params.GminFresh()
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			d := c.Device(i, j)
			if d.Stuck() {
				continue
			}
			g := gMin + (1/d.Resistance()-gMin)*factor
			if !(g > 0) {
				continue
			}
			lo, hi := c.AgedBounds(i, j)
			d.Drift(1/g-d.Resistance(), lo, hi)
		}
	}
}

// TotalStress sums the accumulated stress over all devices.
func (c *Crossbar) TotalStress() float64 {
	s := 0.0
	for _, d := range c.devices {
		s += d.Stress()
	}
	return s
}

// TotalPulses sums the lifetime pulse counts over all devices.
func (c *Crossbar) TotalPulses() int64 {
	var n int64
	for _, d := range c.devices {
		n += d.Pulses()
	}
	return n
}

// MeanAgedUpperBound averages the true aged upper resistance bound over
// all devices — the quantity plotted per layer type in Fig. 11.
func (c *Crossbar) MeanAgedUpperBound() float64 {
	s := 0.0
	for idx := range c.devices {
		_, hi := c.agedBoundsIdx(idx)
		s += hi
	}
	return s / float64(len(c.devices))
}

// SetTraceStride changes the tracing density: the center of every
// stride x stride block is traced. Stride 1 traces every device
// (maximum bookkeeping); larger strides trade estimation accuracy for
// cost. The paper uses 3.
func (c *Crossbar) SetTraceStride(stride int) {
	if stride < 1 {
		panic(fmt.Sprintf("crossbar: trace stride must be >= 1, got %d", stride))
	}
	c.traceStride = stride
}

// TracedIndices returns the representative devices whose programming
// history the mapping hardware traces: the center of every 3x3 block
// ("every one out of nine memristors", Section IV-B). Arrays smaller
// than the block size trace device (0, 0).
func (c *Crossbar) TracedIndices() [][2]int {
	var out [][2]int
	start := c.traceStride / 2
	for i := start; i < c.Rows; i += c.traceStride {
		for j := start; j < c.Cols; j += c.traceStride {
			out = append(out, [2]int{i, j})
		}
	}
	if len(out) == 0 {
		out = append(out, [2]int{0, 0})
	}
	return out
}

// TracedUpperBounds returns the estimated aged upper resistance bounds
// of the traced devices (eq. (6) applied to their traced histories),
// sorted ascending. These are the candidate common-range bounds of the
// iterative selection in Fig. 8.
func (c *Crossbar) TracedUpperBounds() []float64 {
	idx := c.TracedIndices()
	out := make([]float64, 0, len(idx))
	for _, ij := range idx {
		_, hi := c.AgedBounds(ij[0], ij[1])
		out = append(out, hi)
	}
	sort.Float64s(out)
	return out
}

// UsableLevelStats summarizes the usable-level distribution across the
// array (min/mean over devices), after aging.
func (c *Crossbar) UsableLevelStats() (min int, mean float64) {
	min = math.MaxInt32
	total := 0
	for idx := range c.devices {
		lo, hi := c.agedBoundsIdx(idx)
		n := c.grid.UsableLevels(lo, hi)
		if n < min {
			min = n
		}
		total += n
	}
	return min, float64(total) / float64(c.Rows*c.Cols)
}
