package lifetime

import (
	"context"
	"strings"
	"testing"

	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/telemetry"
)

// silentInstruments lists the registered instruments a lifetime run
// cannot exercise, each mapped to the experiment that does.
var silentInstruments = map[string]string{}

// TestNoDeadInstruments runs one short lifetime simulation with
// telemetry on and requires every registered crossbar/*, device/*,
// mapping/*, tuning/* and lifetime/* instrument to have seen at least
// one event (a counter or histogram that never counted, a gauge never
// moved off zero, a timeline with no record). An instrument only another
// experiment can reach must be listed in silentInstruments; a listed
// instrument that did fire here is a stale exemption.
func TestNoDeadInstruments(t *testing.T) {
	net, trainDS := fixture(t, false)
	cfg := testConfig(0.6)
	cfg.MaxCycles = 2
	cfg.AgingVariability = 0.05
	cfg.DriftSigma = 0.15
	cfg.BurnInStress = 0.1
	cfg.Faults = fault.Config{StuckRate: 0.01, TransientProb: 0.05, HazardScale: 40, Seed: 7}

	reg := telemetry.NewRegistry()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	if _, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	fired := map[string]bool{}
	for _, c := range snap.Counters {
		fired[c.Name] = c.Value != 0
	}
	for _, g := range snap.Gauges {
		fired[g.Name] = g.Value != 0
	}
	for _, h := range snap.Histograms {
		fired[h.Name] = h.Count != 0
	}
	for _, tl := range snap.Timelines {
		fired[tl.Name] = len(tl.Records) != 0
	}
	for name, ok := range fired {
		if !strings.HasPrefix(name, "crossbar/") && !strings.HasPrefix(name, "device/") &&
			!strings.HasPrefix(name, "mapping/") && !strings.HasPrefix(name, "tuning/") &&
			!strings.HasPrefix(name, "lifetime/") {
			continue
		}
		exp, exempt := silentInstruments[name]
		switch {
		case !ok && !exempt:
			t.Errorf("instrument %s is registered but saw no event", name)
		case ok && exempt:
			t.Errorf("instrument %s fired, drop its exemption (listed as exercised by %s)", name, exp)
		}
	}
	for _, name := range []string{"mapping/runs", "mapping/candidates_total", "mapping/select_ns"} {
		if !fired[name] {
			t.Errorf("instrument %s saw no event in an aging-aware run", name)
		}
	}
	for name := range silentInstruments {
		if _, ok := fired[name]; !ok {
			t.Errorf("exempt instrument %s is no longer registered; drop its exemption", name)
		}
	}
}
