package lifetime

import (
	"context"
	"strings"
	"testing"

	"memlife/internal/device"
	"memlife/internal/mapping"
)

// TestBurnInShortensLifetime checks that injected prior-life stress
// reduces the measured lifetime, all else equal.
func TestBurnInShortensLifetime(t *testing.T) {
	net, trainDS := fixture(t, false)
	target, err := SuggestTarget(net, trainDS, device.Params32(), fastAging(), 300, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := RunCtx(context.Background(), net, trainDS, TT, device.Params32(), fastAging(), 300, testConfig(target))
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(target)
	cfg.BurnInStress = 5
	burned, err := RunCtx(context.Background(), net, trainDS, TT, device.Params32(), fastAging(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if burned.Lifetime > fresh.Lifetime {
		t.Fatalf("burn-in must not extend lifetime: %d vs %d", burned.Lifetime, fresh.Lifetime)
	}
}

func TestBurnInValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BurnInStress = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative burn-in must be rejected")
	}
}

// TestPolicyOverridePlumbing verifies the override reaches the mapping
// layer: under a burn-in heavy enough to matter, the Fresh override on
// an STAT run must select full-range mappings (no aging-aware
// candidates recorded anywhere — observable via identical behaviour to
// an STT run with the same seed).
func TestPolicyOverridePlumbing(t *testing.T) {
	net, trainDS := fixture(t, false)
	target, err := SuggestTarget(net, trainDS, device.Params32(), fastAging(), 300, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(target)
	cfg.BurnInStress = 2
	fresh := mapping.Fresh
	cfg.PolicyOverride = &fresh
	overridden, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig(target)
	cfg2.BurnInStress = 2
	stt, err := RunCtx(context.Background(), net, trainDS, STT, device.Params32(), fastAging(), 300, cfg2)
	if err != nil {
		t.Fatal(err)
	}

	if overridden.Lifetime != stt.Lifetime {
		t.Fatalf("STAT overridden to fresh must behave like ST+T: %d vs %d", overridden.Lifetime, stt.Lifetime)
	}
}

// TestTraceStridePlumbing verifies the stride override is honoured (a
// smoke check that stride-1 runs complete and produce records).
func TestTraceStridePlumbing(t *testing.T) {
	net, trainDS := fixture(t, true)
	target, err := SuggestTarget(net, trainDS, device.Params32(), fastAging(), 300, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(target)
	cfg.TraceStride = 1
	cfg.MaxCycles = 5
	res, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("stride-1 run must record cycles")
	}
}

// TestSingleCandidateMapping runs aging-aware mapping limited to one
// candidate bound on an unevenly aged array, where the traced bounds
// offer many: the selection must take the widest, not fail.
func TestSingleCandidateMapping(t *testing.T) {
	net, trainDS := fixture(t, false)
	cfg := testConfig(0.6)
	cfg.MaxCycles = 2
	cfg.AgingVariability = 0.3
	cfg.BurnInStress = 3
	cfg.Mapping.MaxCandidates = 1
	if _, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestZeroRemapIterFracRemapsEveryCycle: RemapIterFrac 0 means what it
// says. Every cycle's tuning takes at least 0% of the budget, so every
// cycle remaps, however quickly tuning converged.
func TestZeroRemapIterFracRemapsEveryCycle(t *testing.T) {
	net, trainDS := fixture(t, true)
	cfg := testConfig(0.6)
	cfg.MaxCycles = 4
	cfg.RemapIterFrac = 0
	res, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("run produced no records")
	}
	for _, rec := range res.Records {
		if !rec.Remapped {
			t.Fatalf("cycle %d (%d tuning iterations) did not remap under RemapIterFrac 0", rec.Cycle, rec.TuneIters)
		}
	}
}

// TestSingleMinLevelMappingErrors: with MinLevels 1 and heavy burn-in,
// traced bounds fall below the fresh minimum and a zero-width range
// floor would snap the common range to [RminFresh, RminFresh]. The run
// must return an error, not panic in the crossbar.
func TestSingleMinLevelMappingErrors(t *testing.T) {
	net, trainDS := fixture(t, false)
	cfg := testConfig(0.6)
	cfg.MaxCycles = 2
	cfg.BurnInStress = 100000
	cfg.Mapping.MinLevels = 1
	_, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
	if err == nil || !strings.Contains(err.Error(), "min_levels") {
		t.Fatalf("MinLevels 1 must fail the run with an error, got %v", err)
	}
}
