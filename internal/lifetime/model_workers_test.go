package lifetime

import (
	"context"
	"testing"

	"memlife/internal/device"
	"memlife/internal/fault"
)

// TestModelWorkersEquivalence extends the Workers contract to the
// device-model zoo: evaluation parallelism must stay a pure speed knob
// when the devices are nonlinear or stochastic and a drift-adaptive
// tuning policy is active. The stochastic models draw their C2C noise
// from counter-based per-device streams (never from a shared RNG), so
// runs at 1, 2 and 8 workers must agree record by record, bit by bit.
func TestModelWorkersEquivalence(t *testing.T) {
	net, trainDS := fixture(t, false)

	cases := []struct {
		name   string
		model  device.ModelSpec
		drift  device.DriftSpec
		policy string
	}{
		{"mms-sign", device.ModelSpec{Kind: device.ModelMMS}, device.DriftSpec{}, ""},
		{"yacopcic-recalib", device.ModelSpec{Kind: device.ModelYacopcic}, device.DriftSpec{Nu: 0.05}, "recalib"},
		{"diffusive-minreprog", device.ModelSpec{Kind: device.ModelDiffusive, D2D: 0.1, C2C: 0.05}, device.DriftSpec{Nu: 0.05}, "minreprog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := device.Params32()
			p.Model = tc.model
			p.Drift = tc.drift

			cfg := testConfig(0.6)
			cfg.MaxCycles = 5
			cfg.Tuning.Policy = tc.policy
			cfg.Faults = fault.Config{StuckRate: 0.01, TransientProb: 0.02, Seed: 9}
			cfg.Mapping.FaultAware = true

			run := func(workers int) Result {
				t.Helper()
				c := cfg
				c.Tuning.Workers = workers
				res, err := RunCtx(context.Background(), net, trainDS, STAT, p, fastAging(), 300, c)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}

			want := run(1)
			for _, workers := range []int{2, 8} {
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
		})
	}
}
