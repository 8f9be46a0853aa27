package tuning

import (
	"testing"

	"memlife/internal/fault"
	"memlife/internal/tensor"
)

// TestRetriedPulsesAccumulateStress is the endurance accounting the
// fault model hinges on: when programming pulses fail transiently,
// tuning retries up to its budget and every attempt — failed or not —
// ages the array. Retries are never free.
func TestRetriedPulsesAccumulateStress(t *testing.T) {
	mn, ds, x, y := fixture(t)
	// 95% transient failure: nearly every pulse needs its retry chain.
	if err := mn.SetFaults(fault.Config{TransientProb: 0.95, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// Drift the array so there is real tuning work to do (the fixture
	// starts at its target accuracy).
	mn.Drift(0.15, tensor.NewRNG(4))
	stressBefore := mn.TotalStress()
	res, err := Tune(mn, ds, x, y, Config{
		MaxIters: 4, TargetAcc: 1.0, BatchSize: 16, Patience: -1, RetryBudget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("near-universal transient failure must trigger retries")
	}
	if got := mn.TotalStress() - stressBefore; got <= 0 {
		t.Fatalf("failed pulses and their retries must accumulate stress, got %g", got)
	}
	if res.Stress <= 0 {
		t.Fatalf("tuning result must account the retry stress, got %g", res.Stress)
	}
	// With a 95% failure rate and budget 3 almost every selected device
	// exhausts retries, so the retry count must dwarf the count of
	// devices that moved: the endurance bill of an unreliable write
	// path.
	if res.Retries < res.Pulses/2 {
		t.Fatalf("retries %d implausibly low for 95%% transient failure (%d pulse attempts)",
			res.Retries, res.Pulses)
	}
}

// TestNegativeRetryBudgetDisablesRetries: the budget knob must actually
// gate the retry loop.
func TestNegativeRetryBudgetDisablesRetries(t *testing.T) {
	mn, ds, x, y := fixture(t)
	if err := mn.SetFaults(fault.Config{TransientProb: 0.95, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	mn.Drift(0.15, tensor.NewRNG(4))
	res, err := Tune(mn, ds, x, y, Config{
		MaxIters: 3, TargetAcc: 1.0, BatchSize: 16, Patience: -1, RetryBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Fatalf("RetryBudget<0 must disable retries, got %d", res.Retries)
	}
}

// TestStuckDevicesSkippedWithoutStress: permanently stuck devices are
// excluded from tuning entirely — no pulse, no retry, no added stress.
func TestStuckDevicesSkippedWithoutStress(t *testing.T) {
	mn, ds, x, y := fixture(t)
	if err := mn.SetFaults(fault.Config{StuckRate: 0.3, LRSFrac: 1.0, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	lrs, _ := mn.StuckCounts()
	if lrs == 0 {
		t.Fatal("fixture must have stuck devices at 30%")
	}
	type key struct{ layer, i, j int }
	stuckStress := map[key]float64{}
	for li, l := range mn.Layers {
		for i := 0; i < l.Crossbar.Rows; i++ {
			for j := 0; j < l.Crossbar.Cols; j++ {
				if l.Crossbar.Device(i, j).Stuck() {
					stuckStress[key{li, i, j}] = l.Crossbar.Device(i, j).Stress()
				}
			}
		}
	}
	mn.Drift(0.15, tensor.NewRNG(4))
	res, err := Tune(mn, ds, x, y, Config{
		MaxIters: 5, TargetAcc: 1.0, BatchSize: 16, Patience: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckSkipped == 0 {
		t.Fatal("tuning an array with stuck devices must skip them")
	}
	for k, s0 := range stuckStress {
		l := mn.Layers[k.layer]
		if got := l.Crossbar.Device(k.i, k.j).Stress(); got != s0 {
			t.Fatalf("stuck device (%d,%d) of layer %s gained stress %g during tuning",
				k.i, k.j, l.Name, got-s0)
		}
	}
}
