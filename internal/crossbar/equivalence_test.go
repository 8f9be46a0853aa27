package crossbar

import (
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/tensor"
)

// newFaultedCrossbar builds an array with every fault mechanism of the
// injector enabled (initial stuck devices, transient pulse failures,
// wear-out and read-noise bursts). Arrays built with the same seed are
// identical twins: driven through the same operations they consume the
// same fault draws.
func newFaultedCrossbar(t testing.TB, rows, cols int, seed int64) *Crossbar {
	t.Helper()
	cb, err := New(rows, cols, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Config{
		StuckRate:     0.03,
		TransientProb: 0.05,
		HazardScale:   40,
		ReadBurstProb: 0.25,
		Seed:          seed,
	}, rows*cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.SetFaultInjector(inj); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestEquivalenceReadWeightsInto pins the readback against eq. (4)
// computed in the test from device state, after every kind of mutation
// the simulation performs: plain and fault-aware (re)mapping, tuning
// pulses hitting stuck devices and transient failures, read-disturb
// and power-law state drift, burn-in stress, aging variability and
// wear-out faults. Every cell is compared with == (no tolerance).
//
// Read-noise bursts draw from the fault injector, so the expected
// values come from a twin array driven through the identical sequence:
// the production read consumes one burst decision (and, on a burst, one
// noise draw per device) from the array under test, and the test
// consumes exactly the same draws from the twin's injector to build the
// expected readback. Both arrays therefore stay in lockstep.
func TestEquivalenceReadWeightsInto(t *testing.T) {
	const rows, cols = 9, 7
	const seed = 303
	cb, twin := newFaultedCrossbar(t, rows, cols, seed), newFaultedCrossbar(t, rows, cols, seed)
	rngC, rngT := tensor.NewRNG(seed+1), tensor.NewRNG(seed+1)
	ops := tensor.NewRNG(seed)
	params := cb.Params()
	rLo, rHi := params.RminFresh, params.RmaxFresh

	dst := tensor.New(rows, cols)
	var bursts, clean int
	check := func(step string) {
		t.Helper()
		if err := cb.ReadWeightsInto(dst); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		wMin, wMax, _ := twin.WeightRange()
		lo, hi, _ := twin.MapRange()
		burst, sigma := twin.inj.ReadBurst()
		if burst {
			bursts++
		} else {
			clean++
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				r := twin.Device(i, j).Resistance()
				if burst {
					r *= twin.inj.ReadNoise(sigma)
				}
				want := EffectiveWeight(r, wMin, wMax, lo, hi)
				if got := dst.At(i, j); got != want {
					t.Fatalf("%s (burst %v): cell (%d,%d) reads %v, want %v", step, burst, i, j, got, want)
				}
			}
		}
	}
	both := func(f func(c *Crossbar, rng *tensor.RNG)) {
		f(cb, rngC)
		f(twin, rngT)
	}

	both(func(c *Crossbar, rng *tensor.RNG) { c.RandomizeAging(0.3, rng) })
	w := tensor.New(rows, cols)
	ops.FillNormal(w, 0, 0.5)
	both(func(c *Crossbar, _ *tensor.RNG) { c.MapWeights(w, rLo, rHi) })
	check("initial map")

	var stuckSkipped, retries int
	for round := 0; round < 6; round++ {
		// Pulse every cell once in a seeded direction, so the list
		// always reaches the initially stuck devices.
		steps := make([]Step, 0, rows*cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				dir := 1
				if ops.Float64() < 0.5 {
					dir = -1
				}
				steps = append(steps, Step{I: i, J: j, Dir: dir})
			}
		}
		sc, st := cb.StepDevices(steps, 2), twin.StepDevices(steps, 2)
		if sc != st {
			t.Fatalf("round %d: StepDevices diverged: %+v vs %+v", round, sc, st)
		}
		stuckSkipped += sc.StuckSkipped
		retries += sc.Retries
		check("pulses")

		both(func(c *Crossbar, rng *tensor.RNG) { c.Drift(0.05, rng) })
		check("drift")
		both(func(c *Crossbar, _ *tensor.RNG) { c.StateDrift(0.9) })
		check("state drift")
		both(func(c *Crossbar, _ *tensor.RNG) { c.AddStress(5) })
		check("stress")
		nc, nt := cb.AdvanceFaults(), twin.AdvanceFaults()
		if nc != nt {
			t.Fatalf("round %d: AdvanceFaults diverged: %d vs %d", round, nc, nt)
		}
		check("wear-out faults")
		remapHi := rLo + (0.6+0.1*float64(round%4))*(rHi-rLo)
		both(func(c *Crossbar, _ *tensor.RNG) { c.MapWeightsFaultAware(w, rLo, remapHi) })
		check("fault-aware remap")
		if round%2 == 1 {
			both(func(c *Crossbar, _ *tensor.RNG) { c.MapWeights(w, rLo, rHi) })
			check("remap")
		}
	}
	if stuckSkipped == 0 || retries == 0 {
		t.Fatalf("sequence must pulse stuck devices and retry transient failures: skipped %d, retries %d", stuckSkipped, retries)
	}
	if bursts == 0 || clean == 0 {
		t.Fatalf("sequence must read both with and without a noise burst: %d burst, %d clean reads", bursts, clean)
	}
}
