package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// TestArmListsFromBaseSpec builds every arm experiment's arms from the
// fast base spec alone (no training): each edited spec must validate,
// and the arm labels must slug to distinct, non-empty metric keys, or
// the generic reducer would merge two arms into one statistic.
func TestArmListsFromBaseSpec(t *testing.T) {
	for id := range goldenHeavy {
		if _, ok := armExperiments[id]; !ok {
			t.Errorf("lifetime experiment %s is not an arm experiment", id)
		}
	}
	for id, e := range armExperiments {
		if len(e.arms) == 0 {
			t.Errorf("%s: no arms", id)
		}
		seen := map[string]string{}
		for _, a := range e.arms {
			k := metricSlug(a.label)
			if k == "" {
				t.Errorf("%s: arm %q slugs to an empty key", id, a.label)
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("%s: arms %q and %q share the metric key %q", id, prev, a.label, k)
			}
			seen[k] = a.label
			for _, fixture := range e.fixtures {
				s := spec.Defaults(fixture, true)
				if e.base != nil {
					e.base(&s)
				}
				a.edit(&s)
				if err := s.Validate(); err != nil {
					t.Errorf("%s: arm %q on %s: %v", id, a.label, fixture, err)
				}
			}
		}
	}
}

// TestLifetimeExperimentsResolveInCampaign: every lifetime experiment
// has a Metrics hook, so each one runs under -seeds.
func TestLifetimeExperimentsResolveInCampaign(t *testing.T) {
	resolve := CampaignResolver()
	for id := range goldenHeavy {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s must be a registered experiment", id)
			continue
		}
		if _, ok := resolve(id); !ok {
			t.Errorf("%s does not resolve in the campaign registry", id)
		}
	}
}

// TestRunArmsMatchesRunSpec: runArms returns one result per arm, in arm
// order, each equal to a direct runSpec call on that arm's edit of the
// base spec at the base spec's target, and logs one line per arm.
func TestRunArmsMatchesRunSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the LeNet bundle; skipped in -short")
	}
	b, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	base := b.Spec
	base.Lifetime.AppsPerCycle = 1000
	base.Lifetime.MaxCycles = 3
	base.Lifetime.Tuning.MaxIters = 10
	base.Lifetime.EvalN = 32
	arms := []arm{
		scenarioArm(lifetime.TT),
		scenarioArm(lifetime.STAT),
		// The target comes from the base spec: a technology edit moves
		// the fresh-mapped accuracy, so a per-arm target would differ.
		{"64 levels ST+AT", func(s *spec.Spec) { s.Scenario = lifetime.STAT.String(); s.Device = device.Params64() }},
	}
	var log bytes.Buffer
	opt := testOpt
	opt.Log = &log
	got, err := runArms("test", b, base, arms, opt)
	if err != nil {
		t.Fatal(err)
	}
	target, err := specTarget(b, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(arms) {
		t.Fatalf("got %d results for %d arms", len(got), len(arms))
	}
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != len(arms) {
		t.Fatalf("want one log line per arm, got %q", log.String())
	}
	for i, a := range arms {
		s := base
		a.edit(&s)
		want, err := runSpec(b, s, testOpt, target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("arm %d (%s): runArms result differs from runSpec", i, a.label)
		}
		if prefix := fmt.Sprintf("test: %s %s lifetime=", b.Name, a.label); !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("log line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	if reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("T+T and ST+AT arms ran identically; the order check is vacuous")
	}
}
