package lifetime

import (
	"context"
	"testing"

	"memlife/internal/device"
	"memlife/internal/fault"
)

// TestModelWorkersEquivalence extends the pool's bit-identity contract
// to the device-model zoo: the chunk count must stay a pure speed
// choice when the devices are nonlinear or stochastic and a
// drift-adaptive tuning policy is active. The stochastic models draw
// their C2C noise from counter-based per-device streams (never from a
// shared RNG), so runs under GOMAXPROCS=1 and at the default must agree
// record by record, bit by bit.
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

			assertProcsEquivalent(t, func() (Result, error) {
				return RunCtx(context.Background(), net, trainDS, STAT, p, fastAging(), 300, cfg)
			})
		})
	}
}
