package lifetime

import (
	"bytes"
	"context"
	"testing"

	"memlife/internal/device"
	"memlife/internal/telemetry"
)

func sameResult(a, b Result) bool {
	if a.Lifetime != b.Lifetime || a.Failed != b.Failed ||
		a.DegradedAtCycle != b.DegradedAtCycle || a.FinalAcc != b.FinalAcc ||
		len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}

// TestTelemetrySnapshotDeterministic pins the telemetry determinism
// contract at the lifetime layer: (1) enabling telemetry does not
// change simulation results, and (2) two identical runs produce
// bit-identical deterministic snapshots (wall-clock instruments
// excluded) with the expected cycle-by-cycle timeline.
func TestTelemetrySnapshotDeterministic(t *testing.T) {
	net, trainDS := fixture(t, false)
	cfg := testConfig(0.6)
	cfg.MaxCycles = 6

	runWith := func(reg *telemetry.Registry) Result {
		t.Helper()
		telemetry.SetGlobal(reg)
		defer telemetry.SetGlobal(nil)
		res, err := RunCtx(context.Background(), net, trainDS, STAT, device.Params32(), fastAging(), 300, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := runWith(nil)
	regA := telemetry.NewRegistry()
	resA := runWith(regA)
	regB := telemetry.NewRegistry()
	resB := runWith(regB)

	if !sameResult(plain, resA) {
		t.Fatalf("telemetry changed simulation results:\noff %+v\non  %+v", plain, resA)
	}
	if !sameResult(resA, resB) {
		t.Fatalf("identical runs diverged:\nA %+v\nB %+v", resA, resB)
	}

	var a, b bytes.Buffer
	if err := regA.Snapshot().Deterministic().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := regB.Snapshot().Deterministic().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("deterministic snapshots differ between identical runs:\n--- A ---\n%s\n--- B ---\n%s", a.Bytes(), b.Bytes())
	}

	// The snapshot must actually hold the run: one timeline record per
	// cycle record, and matching cycle counters.
	full := regA.Snapshot()
	recs, ok := full.Timeline("lifetime/timeline")
	if !ok || len(recs) != len(resA.Records) {
		t.Fatalf("lifetime/timeline has %d records (present %v), want %d", len(recs), ok, len(resA.Records))
	}
	for i, rec := range resA.Records {
		if recs[i]["cycle"] != float64(rec.Cycle) || recs[i]["acc"] != rec.Acc ||
			recs[i]["tune_iters"] != float64(rec.TuneIters) ||
			recs[i]["conv_upper"] != rec.ConvUpper || recs[i]["fc_upper"] != rec.FCUpper {
			t.Fatalf("timeline record %d disagrees with CycleRecord:\n%v\nvs %+v", i, recs[i], rec)
		}
	}
	if v, ok := full.Counter("lifetime/cycles_total"); !ok || v != int64(len(resA.Records)) {
		t.Fatalf("lifetime/cycles_total = %d (present %v), want %d", v, ok, len(resA.Records))
	}
	if v, ok := full.Counter("tuning/runs"); !ok || v == 0 {
		t.Fatalf("tuning/runs = %d (present %v), want > 0", v, ok)
	}
}
