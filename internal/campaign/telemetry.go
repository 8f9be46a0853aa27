package campaign

import "memlife/internal/telemetry"

// campaignTel holds the engine's telemetry handles, resolved once per
// Run from the global registry (all-nil when telemetry is disabled).
// Everything here is scheduling observability — durations, pool
// utilization, fsync cost — and never feeds back into results, which
// stay byte-identical across worker counts with telemetry on or off.
type campaignTel struct {
	shardsDone    *telemetry.Counter
	shardsResumed *telemetry.Counter
	busyWorkers   *telemetry.Gauge
	shardNs       *telemetry.Histogram // per-shard wall time
	fsyncNs       *telemetry.Histogram // checkpoint append+fsync wall time
}

func newCampaignTel() campaignTel {
	r := telemetry.Global()
	if r == nil {
		return campaignTel{}
	}
	return campaignTel{
		shardsDone:    r.Counter("campaign/shards_done"),
		shardsResumed: r.Counter("campaign/shards_resumed"),
		busyWorkers:   r.Gauge("campaign/busy_workers"),
		shardNs:       r.Histogram("campaign/shard_ns", telemetry.NsBounds()),
		fsyncNs:       r.Histogram("campaign/checkpoint_fsync_ns", telemetry.NsBounds()),
	}
}
