package experiments

import (
	"context"
	"testing"

	"memlife/internal/crossbar"
	"memlife/internal/fault"
	"memlife/internal/lifetime"
)

// TestFaultSweepFaultMapsDeterministic: the same seed must reproduce
// the exact same fault population on a freshly mapped network, and the
// populations must be nested across rates (a device stuck at 1% is
// stuck at 5%), which is what makes the sweep monotone by construction.
func TestFaultSweepFaultMapsDeterministic(t *testing.T) {
	b, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	build := func(rate float64) *crossbar.MappedNetwork {
		mn, err := crossbar.NewMappedNetwork(b.Normal, DeviceParams(), AgingModel(), TempK)
		if err != nil {
			t.Fatal(err)
		}
		if err := mn.SetFaults(FaultSweepFaults(rate, testOpt.Seed)); err != nil {
			t.Fatal(err)
		}
		return mn
	}
	a, c := build(0.05), build(0.05)
	low := build(0.01)
	for li := range a.Layers {
		ca, cc, cl := a.Layers[li].Crossbar, c.Layers[li].Crossbar, low.Layers[li].Crossbar
		for i := 0; i < ca.Rows; i++ {
			for j := 0; j < ca.Cols; j++ {
				if ca.Device(i, j).Stuck() != cc.Device(i, j).Stuck() {
					t.Fatalf("layer %d device (%d,%d): fault maps differ across identically seeded runs", li, i, j)
				}
				if cl.Device(i, j).Stuck() && !ca.Device(i, j).Stuck() {
					t.Fatalf("layer %d device (%d,%d): stuck at 1%% but healthy at 5%% — sets not nested", li, i, j)
				}
			}
		}
	}
	lrs, hrs := a.StuckCounts()
	if lrs == 0 || hrs != 0 {
		t.Fatalf("sweep config pins all stuck devices at LRS, got lrs=%d hrs=%d", lrs, hrs)
	}
}

// TestFaultSweepLifetimeDeterministic: two runs of the same fault-sweep
// arm under the same seed must agree cycle for cycle — the acceptance
// guarantee that every reported lifetime is reproducible.
func TestFaultSweepLifetimeDeterministic(t *testing.T) {
	b, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	target, err := specTarget(b, b.Spec)
	if err != nil {
		t.Fatal(err)
	}
	target *= 0.9

	cases := []struct {
		name  string
		rate  float64
		sc    lifetime.Scenario
		aware bool
	}{
		{"clean ST+T", 0, lifetime.STT, true},
		{"5% ST+AT", 0.05, lifetime.STAT, true},
		{"5% ST+AT ablation", 0.05, lifetime.STAT, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() lifetime.Result {
				net := b.Normal
				if tc.sc != lifetime.TT {
					net = b.Skewed
				}
				cfg := b.Spec.LifetimeConfig(target)
				cfg.MaxCycles = 5
				cfg.Faults = FaultSweepFaults(tc.rate, testOpt.Seed)
				cfg.Mapping.FaultAware = tc.aware
				cfg.DegradedAccFrac = 0.5
				res, err := lifetime.RunCtx(context.Background(), net, b.TrainDS, tc.sc, DeviceParams(), AgingModel(), TempK, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			r1, r2 := run(), run()
			if r1.Lifetime != r2.Lifetime || r1.Failed != r2.Failed || r1.DegradedAtCycle != r2.DegradedAtCycle {
				t.Fatalf("runs diverge: (%d,%v,%d) vs (%d,%v,%d)",
					r1.Lifetime, r1.Failed, r1.DegradedAtCycle,
					r2.Lifetime, r2.Failed, r2.DegradedAtCycle)
			}
			if len(r1.Records) != len(r2.Records) {
				t.Fatalf("record counts diverge: %d vs %d", len(r1.Records), len(r2.Records))
			}
			for i := range r1.Records {
				a, b := r1.Records[i], r2.Records[i]
				if a.Acc != b.Acc || a.TuneIters != b.TuneIters || a.Stuck != b.Stuck ||
					a.Retries != b.Retries || a.Remapped != b.Remapped || a.Degraded != b.Degraded {
					t.Fatalf("cycle %d diverges:\n%+v\n%+v", a.Cycle, a, b)
				}
			}
		})
	}
}

// TestFaultSweepFaultsShape pins the severity axis: all channels scale
// with the rate and the clean point injects no defects at all (only the
// always-on wear-out hazard).
func TestFaultSweepFaultsShape(t *testing.T) {
	clean := FaultSweepFaults(0, 1)
	if clean.StuckRate != 0 || clean.TransientProb != 0 || clean.ReadBurstProb != 0 {
		t.Fatalf("rate 0 must inject no defects, got %+v", clean)
	}
	if clean.HazardScale <= 0 || !clean.Enabled() {
		t.Fatal("the wear-out hazard must stay active at rate 0")
	}
	lo, hi := FaultSweepFaults(0.01, 1), FaultSweepFaults(0.05, 1)
	if !(lo.StuckRate < hi.StuckRate && lo.TransientProb < hi.TransientProb && lo.ReadBurstProb < hi.ReadBurstProb) {
		t.Fatal("all fault channels must scale with the rate")
	}
	if lo.HazardScale != hi.HazardScale {
		t.Fatal("the wear-out hazard is rate-independent (it tracks stress, not the process corner)")
	}
	for _, c := range []fault.Config{clean, lo, hi} {
		if err := c.Validate(); err != nil {
			t.Fatalf("sweep config must validate: %v", err)
		}
	}
}
