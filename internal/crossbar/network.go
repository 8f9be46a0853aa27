package crossbar

import (
	"fmt"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/nn"
	"memlife/internal/tensor"
)

// MappedLayer binds one weight matrix of a network to its crossbar.
type MappedLayer struct {
	Name string
	Kind nn.LayerKind
	// NetIndex is the index in Net.Layers of the layer owning Param.
	NetIndex int
	Crossbar *Crossbar
	// Param is the parameter of the mapped network's own Net; Refresh
	// overwrites its weights with the crossbar's effective values so
	// inference runs through the simulated hardware.
	Param *nn.Param
	// Target is the trained network's weight tensor, the source of
	// every (re)mapping. It is read, never written.
	Target *tensor.Tensor
	// Gain is the layer's digital output-scaling factor: Refresh
	// multiplies the effective weights by it before inference. It is
	// the knob of AIDX-style scale recalibration (tuning policy
	// "recalib"), which compensates uniform conductance drift in the
	// periphery instead of reprogramming devices. 1 (the initial and
	// post-remap value) applies no scaling and costs nothing.
	Gain float64
}

// MappedNetwork is a neural network deployed onto memristor crossbars:
// one crossbar per conv/FC weight matrix, with biases kept in digital
// periphery (Net carries the trained bias values).
type MappedNetwork struct {
	Net    *nn.Network
	Layers []*MappedLayer
}

// NewMappedNetwork builds a crossbar for every weight layer of the
// trained network. net is never written: Net is a clone of it that
// owns the inference weights, and net's weight tensors become the
// read-only mapping targets. Any number of mapped networks may
// therefore share one trained network, concurrently too.
func NewMappedNetwork(net *nn.Network, p device.Params, m aging.Model, tempK float64) (*MappedNetwork, error) {
	mn := &MappedNetwork{Net: net.Clone()}
	trained := net.WeightLayers()
	for i, wl := range mn.Net.WeightLayers() {
		rows, cols := wl.Param.W.Dim(0), wl.Param.W.Dim(1)
		// Decorrelate the per-device noise draws across layers (a pure
		// no-op for models without variation).
		cb, err := New(rows, cols, p, m, tempK, uint64(len(mn.Layers)+1)<<32)
		if err != nil {
			return nil, fmt.Errorf("crossbar: layer %s: %w", wl.Param.Name, err)
		}
		mn.Layers = append(mn.Layers, &MappedLayer{
			Name:     wl.Param.Name,
			Kind:     wl.Kind,
			NetIndex: wl.Index,
			Crossbar: cb,
			Param:    wl.Param,
			Target:   trained[i].Param.W,
			Gain:     1,
		})
	}
	return mn, nil
}

// RestoreSoftwareWeights writes the trained target weights back into
// Net, undoing any Refresh. Useful for comparing software and hardware
// accuracy on the same network object.
func (m *MappedNetwork) RestoreSoftwareWeights() {
	for _, l := range m.Layers {
		l.Param.W.CopyFrom(l.Target)
	}
}

// MapLayer programs layer i's targets with the common range [rLo, rHi]
// (Crossbar.MapWeights; faultAware skips and compensates stuck devices).
func (m *MappedNetwork) MapLayer(i int, rLo, rHi float64, faultAware bool) MapStats {
	l := m.Layers[i]
	return l.Crossbar.MapWeights(l.Target, rLo, rHi, faultAware)
}

// SetFaults builds one fault injector per crossbar from cfg and
// attaches it, applying initial stuck faults. Each layer derives an
// independent deterministic stream from cfg.Seed and its index, so the
// network-wide fault map is a pure function of cfg.
func (m *MappedNetwork) SetFaults(cfg fault.Config) error {
	for i, l := range m.Layers {
		n := l.Crossbar.Rows * l.Crossbar.Cols
		inj, err := fault.NewInjector(cfg, n, int64(i)*1_000_003)
		if err != nil {
			return fmt.Errorf("crossbar: layer %s faults: %w", l.Name, err)
		}
		if err := l.Crossbar.SetFaultInjector(inj); err != nil {
			return fmt.Errorf("crossbar: layer %s faults: %w", l.Name, err)
		}
	}
	return nil
}

// AdvanceFaults applies the wear-out hazard on every crossbar,
// returning the number of newly stuck devices network-wide.
func (m *MappedNetwork) AdvanceFaults() int {
	newly := 0
	for _, l := range m.Layers {
		newly += l.Crossbar.AdvanceFaults()
	}
	return newly
}

// StuckCounts tallies permanently stuck devices network-wide.
func (m *MappedNetwork) StuckCounts() (lrs, hrs int) {
	for _, l := range m.Layers {
		a, b := l.Crossbar.StuckCounts()
		lrs += a
		hrs += b
	}
	return lrs, hrs
}

// Refresh loads every crossbar's effective weights into Net, so
// subsequent Forward calls simulate hardware inference. It returns an
// error (crossbar.ErrNotMapped wrapped per layer) if any crossbar has
// not been programmed yet.
func (m *MappedNetwork) Refresh() error {
	for _, l := range m.Layers {
		if err := l.Crossbar.ReadWeightsInto(l.Param.W); err != nil {
			return fmt.Errorf("crossbar: refresh layer %s: %w", l.Name, err)
		}
		if l.Gain != 1 && l.Gain != 0 {
			// Digital output scaling (recalibration policy); skipped
			// entirely at the default gain so the hot path is untouched.
			wd := l.Param.W.Data()
			for i := range wd {
				wd[i] *= l.Gain
			}
		}
	}
	return nil
}

// ResetGains restores every layer's digital scaling to 1 — remapping
// reprograms the devices to their targets, so any drift compensation
// the gains were carrying is stale.
func (m *MappedNetwork) ResetGains() {
	for _, l := range m.Layers {
		l.Gain = 1
	}
}

// StateDrift applies one interval of spontaneous conductance state
// drift to every crossbar (see Crossbar.StateDrift).
func (m *MappedNetwork) StateDrift(factor float64) {
	for _, l := range m.Layers {
		l.Crossbar.StateDrift(factor)
	}
}

// Accuracy refreshes the effective weights and classifies the batch.
func (m *MappedNetwork) Accuracy(x *tensor.Tensor, y []int) (float64, error) {
	if err := m.Refresh(); err != nil {
		return 0, err
	}
	return m.Net.Accuracy(x, y), nil
}

// RandomizeAging assigns lognormal endurance-variability factors to
// every device of every crossbar.
func (m *MappedNetwork) RandomizeAging(sigma float64, rng *tensor.RNG) {
	for _, l := range m.Layers {
		l.Crossbar.RandomizeAging(sigma, rng)
	}
}

// AddStress injects burn-in stress into every device of every crossbar.
func (m *MappedNetwork) AddStress(s float64) {
	for _, l := range m.Layers {
		l.Crossbar.AddStress(s)
	}
}

// SetTraceStride changes the tracing density on every crossbar.
func (m *MappedNetwork) SetTraceStride(stride int) {
	for _, l := range m.Layers {
		l.Crossbar.SetTraceStride(stride)
	}
}

// Drift perturbs every device of every crossbar (read-disturb drift).
func (m *MappedNetwork) Drift(sigma float64, rng *tensor.RNG) {
	for _, l := range m.Layers {
		l.Crossbar.Drift(sigma, rng)
	}
}

// TotalPulses sums programming pulses across all crossbars.
func (m *MappedNetwork) TotalPulses() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.Crossbar.TotalPulses()
	}
	return n
}

// TotalStress sums accumulated stress across all crossbars.
func (m *MappedNetwork) TotalStress() float64 {
	s := 0.0
	for _, l := range m.Layers {
		s += l.Crossbar.TotalStress()
	}
	return s
}

// MeanUpperBoundByKind averages the aged upper resistance bound over all
// devices of conv layers and FC layers separately — the two curves of
// Fig. 11.
func (m *MappedNetwork) MeanUpperBoundByKind() (conv, fc float64) {
	convSum, convN, fcSum, fcN := 0.0, 0, 0.0, 0
	for _, l := range m.Layers {
		mean := l.Crossbar.MeanAgedUpperBound()
		n := l.Crossbar.Rows * l.Crossbar.Cols
		if l.Kind == nn.LayerConv {
			convSum += mean * float64(n)
			convN += n
		} else {
			fcSum += mean * float64(n)
			fcN += n
		}
	}
	if convN > 0 {
		conv = convSum / float64(convN)
	}
	if fcN > 0 {
		fc = fcSum / float64(fcN)
	}
	return conv, fc
}
