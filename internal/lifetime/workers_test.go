package lifetime

import (
	"context"
	"testing"

	"memlife/internal/device"
	"memlife/internal/fault"
)

// TestWorkersEquivalence pins the contract of Config.Tuning.Workers:
// forward
// evaluation parallelism is a pure speed knob, so a run with a worker
// pool must produce the exact same Result — record by record, bit by
// bit — as the serial run. This is what keeps campaign shards
// deterministic when -eval-workers is set. CI runs this under -race,
// which also checks the worker pool's synchronization against the
// simulation's mutation pattern.
func TestWorkersEquivalence(t *testing.T) {
	net, trainDS := fixture(t, false)

	cfg := testConfig(0.6)
	cfg.MaxCycles = 6 // enough cycles to hit drift, tuning, and remap paths
	cfg.Faults = fault.Config{
		StuckRate:     0.01,
		TransientProb: 0.02,
		HazardScale:   50,
		ReadBurstProb: 0.1,
		Seed:          9,
	}
	cfg.Mapping.FaultAware = true

	run := func(workers int) Result {
		t.Helper()
		c := cfg
		c.Tuning.Workers = workers
		res, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	want := run(0)
	for _, workers := range []int{1, 4} {
		got := run(workers)
		if got.Lifetime != want.Lifetime || got.Failed != want.Failed ||
			got.DegradedAtCycle != want.DegradedAtCycle || got.FinalAcc != want.FinalAcc {
			t.Fatalf("workers=%d: result diverged: got {lifetime %d failed %v degraded@%d acc %v}, want {lifetime %d failed %v degraded@%d acc %v}",
				workers, got.Lifetime, got.Failed, got.DegradedAtCycle, got.FinalAcc,
				want.Lifetime, want.Failed, want.DegradedAtCycle, want.FinalAcc)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got.Records), len(want.Records))
		}
		for i := range want.Records {
			if got.Records[i] != want.Records[i] {
				t.Fatalf("workers=%d: cycle %d record diverged:\ngot  %+v\nwant %+v",
					workers, i+1, got.Records[i], want.Records[i])
			}
		}
	}
}
