package crossbar

import (
	"fmt"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/tensor"
)

// The golden equivalence suite: the cached read path (ReadWeightsInto)
// must be BIT-identical to the naive per-device oracle
// (EffectiveWeightsNaive) after every kind of mutation the simulation
// performs. Two identically constructed
// arrays are driven through the same seeded operation sequence; one is
// read through the cache, the other through the oracle, and every
// readback is compared with == (no tolerance). Because reads consume
// fault-injector draws (the per-readback burst decision), both arrays
// are read exactly once per comparison point so their RNG streams stay
// in lockstep.

// equivPair drives two identical crossbars through identical mutations.
type equivPair struct {
	cached *Crossbar // read via the cached path
	naive  *Crossbar // read via the *Naive oracle
	// Per-array drift RNGs with identical seeds, so both arrays see the
	// same drift while each consumes its own stream.
	rngC, rngN *tensor.RNG
}

func newEquivPair(t testing.TB, rows, cols int, faults bool, seed int64) *equivPair {
	t.Helper()
	build := func() *Crossbar {
		cb, err := New(rows, cols, device.Params32(), aging.DefaultModel(), 300)
		if err != nil {
			t.Fatal(err)
		}
		if faults {
			cfg := fault.Config{
				StuckRate:     0.03,
				TransientProb: 0.05,
				HazardScale:   40,
				ReadBurstProb: 0.25,
				Seed:          seed,
			}
			inj, err := fault.NewInjector(cfg, rows*cols, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := cb.SetFaultInjector(inj); err != nil {
				t.Fatal(err)
			}
		}
		return cb
	}
	p := &equivPair{
		cached: build(),
		naive:  build(),
		rngC:   tensor.NewRNG(seed + 77),
		rngN:   tensor.NewRNG(seed + 77),
	}
	return p
}

// check reads both arrays once through their respective paths and
// fails on any bit difference.
func (p *equivPair) check(t testing.TB, step string) {
	t.Helper()
	eff := mustEff(t, p.cached)
	effN, err := p.naive.EffectiveWeightsNaive()
	if err != nil {
		t.Fatalf("%s: naive read: %v", step, err)
	}
	for i, v := range effN.Data() {
		if eff.Data()[i] != v {
			t.Fatalf("%s: effective weight %d differs: cached %v, naive %v", step, i, eff.Data()[i], v)
		}
	}
}

// pulse applies the same tuning-pulse list to both arrays through the
// production StepDevices path (the cache-patching path) and requires
// identical accounting.
func (p *equivPair) pulse(t testing.TB, step string, steps []Step) {
	t.Helper()
	sc := p.cached.StepDevices(steps, 2)
	sn := p.naive.StepDevices(steps, 2)
	if sc != sn {
		t.Fatalf("%s: StepDevices diverged: %+v vs %+v", step, sc, sn)
	}
}

// scenario selects the remapping range policy, mirroring the paper's
// three configurations: TT / ST+T remap onto the fresh range, ST+AT
// onto a narrowed (aging-aware style) range.
type equivScenario struct {
	name    string
	remapHi float64 // fraction of the fresh range width kept on remap
}

func TestEquivalenceCachedVsNaive(t *testing.T) {
	scenarios := []equivScenario{
		{name: "TT", remapHi: 1.0},
		{name: "ST+T", remapHi: 1.0},
		{name: "ST+AT", remapHi: 0.8},
	}
	for _, sc := range scenarios {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%v", sc.name, faults), func(t *testing.T) {
				const rows, cols = 9, 7
				seed := int64(101)
				p := newEquivPair(t, rows, cols, faults, seed)
				params := p.cached.Params()
				ops := tensor.NewRNG(seed)

				w := tensor.New(rows, cols)
				ops.FillNormal(w, 0, 0.5)
				if sc.name != "TT" {
					// Skewed-training style: shift the weight mass like the
					// ST scenarios do, so the mapped conductances sit low.
					for i, v := range w.Data() {
						w.Data()[i] = v*0.5 - 0.3
					}
				}
				rLo, rHi := params.RminFresh, params.RmaxFresh
				remapHi := rLo + sc.remapHi*(rHi-rLo)

				p.cached.MapWeights(w, rLo, rHi)
				p.naive.MapWeights(w, rLo, rHi)
				p.check(t, "after initial map")

				for step := 0; step < 30; step++ {
					label := fmt.Sprintf("step %d", step)
					switch op := ops.Intn(6); op {
					case 0: // tuning pulse burst: the patch path
						steps := make([]Step, 12)
						for k := range steps {
							steps[k] = Step{I: ops.Intn(rows), J: ops.Intn(cols), Dir: 1}
							if ops.Float64() < 0.5 {
								steps[k].Dir = -1
							}
						}
						label += " (pulses)"
						p.pulse(t, label, steps)
					case 1: // read-disturb drift: whole-cache invalidation
						p.cached.Drift(0.05, p.rngC)
						p.naive.Drift(0.05, p.rngN)
						label += " (drift)"
					case 2: // remap under the scenario's range policy
						p.cached.MapWeights(w, rLo, remapHi)
						p.naive.MapWeights(w, rLo, remapHi)
						label += " (remap)"
					case 3: // burn-in stress: moves every aged window
						p.cached.AddStress(3)
						p.naive.AddStress(3)
						label += " (stress)"
					case 4: // wear-out transitions: the stuck-cell patch path
						nc := p.cached.AdvanceFaults()
						nn := p.naive.AdvanceFaults()
						if nc != nn {
							t.Fatalf("%s: AdvanceFaults diverged: %d vs %d", label, nc, nn)
						}
						label += " (faults)"
					case 5: // fault-aware remap (plain remap when faults off)
						if faults {
							p.cached.MapWeightsFaultAware(w, rLo, remapHi)
							p.naive.MapWeightsFaultAware(w, rLo, remapHi)
							label += " (fault-aware remap)"
						} else {
							p.cached.MapWeights(w, rLo, rHi)
							p.naive.MapWeights(w, rLo, rHi)
							label += " (remap fresh)"
						}
					}
					p.check(t, label)
				}
			})
		}
	}
}

// TestEquivalenceReadWeightsInto pins the allocation-free readback used
// by MappedNetwork.Refresh against the naive oracle, reading into the
// same reused destination across cold and warm caches.
func TestEquivalenceReadWeightsInto(t *testing.T) {
	const rows, cols = 5, 8
	p := newEquivPair(t, rows, cols, false, 303)
	params := p.cached.Params()
	w := tensor.New(rows, cols)
	tensor.NewRNG(9).FillNormal(w, 0, 0.5)
	p.cached.MapWeights(w, params.RminFresh, params.RmaxFresh)
	p.naive.MapWeights(w, params.RminFresh, params.RmaxFresh)

	dst := tensor.New(rows, cols)
	for rep := 0; rep < 4; rep++ {
		if rep == 2 {
			p.cached.Drift(0.03, p.rngC)
			p.naive.Drift(0.03, p.rngN)
		}
		if err := p.cached.ReadWeightsInto(dst); err != nil {
			t.Fatal(err)
		}
		effN, err := p.naive.EffectiveWeightsNaive()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range effN.Data() {
			if dst.Data()[i] != v {
				t.Fatalf("rep %d: readback %d differs: %v vs %v", rep, i, dst.Data()[i], v)
			}
		}
	}
}

// TestDeviceEscapeHatchInvalidates pins the conservative contract of
// the public Device accessor: mutating a device through it must be
// visible on the next cached read.
func TestDeviceEscapeHatchInvalidates(t *testing.T) {
	cb := newTestCrossbar(t, 4, 4)
	p := cb.Params()
	w := tensor.New(4, 4)
	tensor.NewRNG(3).FillNormal(w, 0, 0.5)
	cb.MapWeights(w, p.RminFresh, p.RmaxFresh)
	before := mustEff(t, cb).Clone() // warm the cache

	d := cb.Device(1, 2)
	for k := 0; k < 3; k++ {
		d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
		d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
	}
	after := mustEff(t, cb)
	if after.At(1, 2) == before.At(1, 2) {
		t.Fatal("cached read must reflect device state mutated through the Device escape hatch")
	}
}
