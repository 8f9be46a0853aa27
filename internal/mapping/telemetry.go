package mapping

import (
	"time"

	"memlife/internal/telemetry"
)

// recordMapTel publishes the outcome of one Map invocation. Handles are
// resolved per call, as in internal/tuning: a mapping pass costs many
// forward passes, so the registry lookups are noise.
func recordMapTel(candidates int, selectNs time.Duration, err error) {
	if telemetry.Global() == nil || err != nil {
		return
	}
	telemetry.C("mapping/runs").Inc()
	telemetry.C("mapping/candidates_total").Add(int64(candidates))
	telemetry.H("mapping/select_ns", telemetry.NsBounds()).Observe(float64(selectNs.Nanoseconds()))
}
