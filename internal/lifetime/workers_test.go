package lifetime

import (
	"context"
	"runtime"
	"testing"

	"memlife/internal/device"
)

// TestWorkersEquivalence pins the bit-identity contract of the kernel
// token pool: every forward and backward pass splits its samples or
// rows over GOMAXPROCS chunks, which must be a pure speed choice, so a
// run at the default GOMAXPROCS must produce the exact same Result —
// record by record, bit by bit — as one under GOMAXPROCS=1. This is
// what keeps campaign shards deterministic on any machine. CI runs this
// under -race, which also checks the pool's synchronization against
// the simulation's mutation pattern.
func TestWorkersEquivalence(t *testing.T) {
	net, trainDS := fixture(t, false)

	cfg := testConfig(0.6)
	cfg.MaxCycles = 6 // enough cycles to hit drift, tuning, and remap paths
	cfg.Faults.StuckRate = 0.01
	cfg.Faults.TransientProb = 0.02
	cfg.Faults.HazardScale = 50
	cfg.Faults.ReadBurstProb = 0.1
	cfg.Faults.Seed = 9
	cfg.Mapping.FaultAware = true

	assertProcsEquivalent(t, func() (Result, error) {
		return RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
	})
}

// assertProcsEquivalent runs one lifetime simulation under
// GOMAXPROCS=1 and again at the default, and fails on any difference.
// It changes a process-wide setting, so its callers must not run in
// parallel with other tests.
func assertProcsEquivalent(t *testing.T, run func() (Result, error)) {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	want, err := run()
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatalf("GOMAXPROCS=1: %v", err)
	}
	got, err := run()
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	if got.Lifetime != want.Lifetime || got.Failed != want.Failed ||
		got.DegradedAtCycle != want.DegradedAtCycle || got.FinalAcc != want.FinalAcc {
		t.Fatalf("GOMAXPROCS=%d: result diverged: got {lifetime %d failed %v degraded@%d acc %v}, want {lifetime %d failed %v degraded@%d acc %v}",
			procs, got.Lifetime, got.Failed, got.DegradedAtCycle, got.FinalAcc,
			want.Lifetime, want.Failed, want.DegradedAtCycle, want.FinalAcc)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("GOMAXPROCS=%d: %d records, want %d", procs, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("GOMAXPROCS=%d: cycle %d record diverged:\ngot  %+v\nwant %+v",
				procs, i+1, got.Records[i], want.Records[i])
		}
	}
}
