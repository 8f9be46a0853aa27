package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"memlife/internal/campaign"
	"memlife/internal/fleet"
	"memlife/internal/spec"
)

// ConfigFingerprint hashes the resolved base specs every registered
// experiment derives from at the given scale (both fixtures, default
// seed). Campaigns pin it into their checkpoint fingerprint so a
// journal can only be resumed under the configuration that wrote it —
// if any default a spec serializes changes, the fingerprint changes and
// stale checkpoints fail loudly.
func ConfigFingerprint(fast bool) (string, error) {
	var parts []string
	for _, fixture := range []string{spec.FixtureLeNet, spec.FixtureVGG} {
		fp, err := spec.Defaults(fixture, fast).Fingerprint()
		if err != nil {
			return "", fmt.Errorf("experiments: config fingerprint: %w", err)
		}
		parts = append(parts, fp)
	}
	sum := sha256.Sum256([]byte(strings.Join(parts, "|")))
	return hex.EncodeToString(sum[:8]), nil
}

// ScenarioExperiment is the experiment name under which an ad-hoc
// scenario spec runs through the campaign engine (see ScenarioResolver).
const ScenarioExperiment = "scenario"

// ScenarioMetrics runs the resolved spec's lifetime study once at the
// options' seed and reduces it to scalar campaign metrics — the serve
// daemon's unit of work. The seed override (opt.Seed) replaces the
// spec's run.seed, so campaign shards of the same spec draw distinct,
// deterministic seed streams exactly like registered experiments do.
func ScenarioMetrics(s spec.Spec, opt Options) (map[string]float64, error) {
	s.Run.Seed = opt.Seed
	opt.Fast = s.Run.Fast

	// A fleet block switches the unit of work: the spec describes a
	// population of crossbars under traffic, not a single lifetime
	// study, and needs no trained bundle.
	if s.Fleet != nil {
		res, err := fleet.Run(opt.Context(), *s.Fleet, s.Device, s.Aging, s.TempK, s.Run.Seed)
		if err != nil {
			return nil, err
		}
		return res.Metrics(), nil
	}

	b, err := BundleForSpec(s, opt)
	if err != nil {
		return nil, err
	}
	target, err := specTarget(b, s)
	if err != nil {
		return nil, err
	}
	res, err := runSpec(b, s, opt, target)
	if err != nil {
		return nil, err
	}
	failed := 0.0
	if res.Failed {
		failed = 1
	}
	return map[string]float64{
		"lifetime_apps": float64(res.Lifetime),
		"final_acc":     res.FinalAcc,
		"cycles":        float64(len(res.Records)),
		"failed":        failed,
		"target_acc":    target,
	}, nil
}

// ScenarioTarget picks one target accuracy per bundle, achievable by
// both the normal and the skewed variant right after a fresh mapping
// (minus a small margin), mirroring the paper's per-network target.
func ScenarioTarget(b *Bundle, opt Options) (float64, error) { return specTarget(b, b.Spec) }

// ScenarioResolver adapts one resolved scenario spec to the campaign
// engine: the single experiment name ScenarioExperiment maps to a
// runner that executes the spec at the shard's derived seed. This is
// what lets the serve daemon reuse the campaign machinery — bounded
// workers, fsynced checkpoints, byte-identical aggregation, crash-safe
// resume — for arbitrary submitted specs that have no registry entry.
func ScenarioResolver(s spec.Spec) campaign.Resolver {
	return func(id string) (campaign.RunnerFunc, bool) {
		if id != ScenarioExperiment {
			return nil, false
		}
		return func(ctx context.Context, sh campaign.Shard, log io.Writer) (campaign.Metrics, error) {
			m, err := ScenarioMetrics(s, Options{Seed: sh.Seed, Log: log, Ctx: ctx})
			return campaign.Metrics(m), err
		}, true
	}
}

// RunScenario executes one resolved scenario spec end to end: build (or
// fetch) the trained bundle its fixture section describes, derive the
// effective tuning target, run the lifetime simulation, and write a
// plain-text summary. This is the CLI's -scenario path; the options
// carry only run plumbing (context, log) — fast mode and seed come
// from the spec itself.
func RunScenario(w io.Writer, s spec.Spec, opt Options) error {
	opt.Fast = s.Run.Fast
	opt.Seed = s.Run.Seed

	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	if s.Fleet != nil {
		return runFleetScenario(w, s, fp, opt)
	}
	b, err := BundleForSpec(s, opt)
	if err != nil {
		return err
	}
	target, err := specTarget(b, s)
	if err != nil {
		return err
	}
	res, err := runSpec(b, s, opt, target)
	if err != nil {
		return err
	}

	name := s.Name
	if name == "" {
		name = "(unnamed scenario)"
	}
	fmt.Fprintf(w, "scenario: %s\n", name)
	fmt.Fprintf(w, "fingerprint: %s\n", fp)
	fmt.Fprintf(w, "fixture: %s (%s / %s)  scenario: %s", s.Fixture.Name, b.Name, b.DatasetName, s.Scenario)
	if s.Policy != "" {
		fmt.Fprintf(w, "  policy: %s", s.Policy)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "software accuracy: normal=%.3f skewed=%.3f  target=%.3f\n", b.NormalAcc, b.SkewedAcc, target)
	fmt.Fprintf(w, "lifetime: %d applications over %d cycles", res.Lifetime, len(res.Records))
	if res.Failed {
		fmt.Fprint(w, " (failed)")
	} else {
		fmt.Fprint(w, " (censored: simulation budget reached)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "final accuracy: %.3f\n", res.FinalAcc)
	if res.DegradedAtCycle > 0 {
		fmt.Fprintf(w, "degraded service from cycle %d\n", res.DegradedAtCycle)
	}
	return nil
}

// runFleetScenario is the -scenario path for specs carrying a fleet
// block: run the fleet simulation the block describes and summarize.
func runFleetScenario(w io.Writer, s spec.Spec, fp string, opt Options) error {
	res, err := fleet.Run(opt.Context(), *s.Fleet, s.Device, s.Aging, s.TempK, s.Run.Seed)
	if err != nil {
		return err
	}
	name := s.Name
	if name == "" {
		name = "(unnamed scenario)"
	}
	fmt.Fprintf(w, "scenario: %s (fleet)\n", name)
	fmt.Fprintf(w, "fingerprint: %s\n", fp)
	fmt.Fprintf(w, "fleet: %d instances, %d ticks, balancer=%s, traffic=%s\n",
		s.Fleet.Instances, s.Fleet.Ticks, s.Fleet.Balancer, s.Fleet.Traffic.Pattern)
	fmt.Fprintf(w, "served: %d  dropped: %d  retunes: %d  remaps: %d\n",
		res.Served, res.Dropped, res.Retunes, res.Remaps)
	fmt.Fprintf(w, "deaths: %d", res.Deaths)
	if res.FirstDeathTick > 0 {
		fmt.Fprintf(w, " (first at tick %d)", res.FirstDeathTick)
	}
	fmt.Fprintf(w, "  replacements: %d (cost %.1f)\n", res.Replacements, res.ReplacementCost)
	fmt.Fprintf(w, "accuracy p50/p99: %.3f / %.3f  latency proxy p50/p99: %.2f / %.2f\n",
		res.AccP50, res.AccP99, res.LatencyP50, res.LatencyP99)
	fmt.Fprintf(w, "final alive fraction: %.2f\n", res.FinalAlive)
	return nil
}
