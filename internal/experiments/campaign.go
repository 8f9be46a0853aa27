package experiments

import (
	"context"
	"io"

	"memlife/internal/campaign"
)

// CampaignResolver adapts the experiment registry to the campaign
// engine: every experiment with a Metrics hook becomes shard-runnable.
// The indirection keeps the dependency arrow pointing one way —
// campaign never imports experiments.
func CampaignResolver() campaign.Resolver {
	return func(id string) (campaign.RunnerFunc, bool) {
		e, ok := ByID(id)
		if !ok || e.Metrics == nil {
			return nil, false
		}
		metrics := e.Metrics
		return func(ctx context.Context, s campaign.Shard, log io.Writer) (campaign.Metrics, error) {
			m, err := metrics(Options{Fast: s.Fast, Seed: s.Seed, Log: log, Ctx: ctx})
			return campaign.Metrics(m), err
		}, true
	}
}
