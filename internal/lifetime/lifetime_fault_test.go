package lifetime

import (
	"context"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
	"memlife/internal/fault"
)

// TestGracefulDegradationEngages forces stage 3 of the degradation
// ladder: an unreachable target with an achievable floor must flip the
// run into degraded service instead of killing it, record when that
// happened, and keep serving applications at the floor.
func TestGracefulDegradationEngages(t *testing.T) {
	net, ds := fixture(t, false)
	cfg := testConfig(0.999) // unreachable on the defective array below
	cfg.MaxCycles = 4
	cfg.Tuning.MaxIters = 15
	cfg.DegradedAccFrac = 0.5 // floor ~0.5, comfortably achievable
	cfg.Mapping.FaultAware = true
	// 30% stuck-at-LRS: compensation holds the accuracy in the 0.8s —
	// well above the floor, well below the target.
	cfg.Faults = fault.Config{StuckRate: 0.3, LRSFrac: 1.0, Seed: 3}

	res, err := RunCtx(context.Background(), net, ds, TT, device.Params32(), aging.DefaultModel(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedAtCycle != 1 {
		t.Fatalf("degradation must engage in cycle 1, got %d", res.DegradedAtCycle)
	}
	if res.Failed || res.Lifetime != int64(cfg.MaxCycles)*cfg.AppsPerCycle {
		t.Fatalf("a degraded array must keep serving at the floor: failed=%v lifetime=%d",
			res.Failed, res.Lifetime)
	}
	if len(res.Records) != cfg.MaxCycles {
		t.Fatalf("got %d records, want %d", len(res.Records), cfg.MaxCycles)
	}
	for _, rec := range res.Records {
		if !rec.Degraded {
			t.Fatalf("cycle %d after degradation must be marked Degraded", rec.Cycle)
		}
		if rec.Acc < cfg.TargetAcc*cfg.DegradedAccFrac {
			t.Fatalf("cycle %d served below the floor: %g", rec.Cycle, rec.Acc)
		}
	}
	if res.FinalAcc != res.Records[len(res.Records)-1].Acc {
		t.Fatal("FinalAcc must be the last served accuracy")
	}
}

// TestZeroDegradedFracPreservesHardFailure: the zero value keeps the
// paper's original criterion — any miss of TargetAcc is fatal.
func TestZeroDegradedFracPreservesHardFailure(t *testing.T) {
	net, ds := fixture(t, false)
	cfg := testConfig(0.999)
	cfg.MaxCycles = 4
	cfg.Tuning.MaxIters = 15
	cfg.Mapping.FaultAware = true
	cfg.Faults = fault.Config{StuckRate: 0.3, LRSFrac: 1.0, Seed: 3}
	// DegradedAccFrac left at zero.

	res, err := RunCtx(context.Background(), net, ds, TT, device.Params32(), aging.DefaultModel(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.Lifetime != 0 {
		t.Fatalf("missing an undegradable target must fail in cycle 1: failed=%v lifetime=%d",
			res.Failed, res.Lifetime)
	}
	if res.DegradedAtCycle != 0 {
		t.Fatal("no degradation stage may engage when DegradedAccFrac is zero")
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cfg := testConfig(0.6)
	cfg.DegradedAccFrac = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("DegradedAccFrac = 1 must be rejected (it would make degradation a no-op)")
	}
	cfg = testConfig(0.6)
	cfg.DegradedAccFrac = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative DegradedAccFrac must be rejected")
	}
	cfg = testConfig(0.6)
	cfg.Faults = fault.Config{StuckRate: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid fault config must propagate out of lifetime validation")
	}
}

// TestFaultsThreadedThroughRun: a lifetime run with injected stuck
// devices must report them in its cycle records.
func TestFaultsThreadedThroughRun(t *testing.T) {
	net, ds := fixture(t, false)
	cfg := testConfig(0.55)
	cfg.MaxCycles = 2
	cfg.Tuning.MaxIters = 15
	cfg.DegradedAccFrac = 0.5
	cfg.Mapping.FaultAware = true
	cfg.Faults = fault.Config{StuckRate: 0.02, LRSFrac: 1.0, Seed: 3}

	res, err := RunCtx(context.Background(), net, ds, TT, device.Params32(), aging.DefaultModel(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("run produced no records")
	}
	for _, rec := range res.Records {
		if rec.Stuck == 0 {
			t.Fatalf("cycle %d must report the injected stuck devices", rec.Cycle)
		}
	}
}
