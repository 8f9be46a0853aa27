package mapping

import (
	"bytes"
	"testing"

	"memlife/internal/telemetry"
)

// TestMapTelemetry checks the mapping/map span and the mapping/*
// instruments of an initial map and a remap.
func TestMapTelemetry(t *testing.T) {
	mn, x, y := fixture(t)
	ageLayer(mn.Layers[0].Crossbar, 4)
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	telemetry.SetGlobal(reg)
	telemetry.SetGlobalTracer(telemetry.NewTracer(&buf))
	defer telemetry.SetGlobal(nil)
	defer telemetry.SetGlobalTracer(nil)

	candidates := 0
	for pass := 0; pass < 2; pass++ {
		res, err := Map(mn, testConfig(AgingAware), x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range res.Selections {
			candidates += len(sel.Candidates)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("mapping/runs"); v != 2 {
		t.Fatalf("mapping/runs = %d, want 2", v)
	}
	if v, _ := snap.Counter("mapping/candidates_total"); v != int64(candidates) {
		t.Fatalf("mapping/candidates_total = %d, want %d", v, candidates)
	}
	hist := false
	for _, h := range snap.Histograms {
		hist = hist || (h.Name == "mapping/select_ns" && h.Count == 2)
	}
	if !hist {
		t.Fatal("mapping/select_ns must observe one selection phase per Map")
	}

	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var remaps []any
	for _, r := range recs {
		if r.Type != "span" || r.Name != "mapping/map" {
			continue
		}
		if r.Attrs["policy"] != "aging-aware" || r.Attrs["layers"] != float64(len(mn.Layers)) {
			t.Fatalf("mapping/map attrs = %v", r.Attrs)
		}
		if _, ok := r.Attrs["candidates"].(float64); !ok {
			t.Fatalf("mapping/map attrs lack a candidate count: %v", r.Attrs)
		}
		remaps = append(remaps, r.Attrs["remap"])
	}
	if len(remaps) != 2 || remaps[0] != false || remaps[1] != true {
		t.Fatalf("mapping/map remap attrs = %v, want [false true]", remaps)
	}
}
