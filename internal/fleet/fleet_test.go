package fleet

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/device"
)

// testModel is the spec layer's accelerated default calibration.
func testModel() aging.Model {
	m := aging.DefaultModel()
	m.A, m.B = 8000, 1000
	return m
}

func testRun(t *testing.T, mutate func(*Config), seed int64) Result {
	t.Helper()
	cfg := Defaults(10, true)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := Run(context.Background(), cfg, device.Params32(), testModel(), 300, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDefaultsValidate(t *testing.T) {
	for _, fast := range []bool{true, false} {
		c := Defaults(10, fast)
		if err := c.Validate(); err != nil {
			t.Errorf("Defaults(10, %v) invalid: %v", fast, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Instances = 0 }, "fleet.instances"},
		{func(c *Config) { c.Balancer = "random" }, "fleet.balancer"},
		{func(c *Config) { c.Traffic.Pattern = "steady" }, "fleet.traffic.pattern"},
		{func(c *Config) { c.Traffic.Load = -1 }, "fleet.traffic.load"},
		{func(c *Config) { c.Traffic.Keys = maxKeys + 1 }, "fleet.traffic.keys"},
		{func(c *Config) { c.Service.TuneMargin = 0.5 }, "fleet.service.tune_margin"},
		{func(c *Config) { c.Service.MaxIters = baseIters - 1 }, "fleet.service.max_iters"},
	}
	for _, tc := range cases {
		c := Defaults(10, true)
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want error mentioning %q, got %v", tc.want, err)
		}
	}
}

// TestClosedLoopDynamics: the default fast configuration must exercise
// the whole aging cascade — retunes, remaps, deaths, replacements —
// and keep the bookkeeping coherent.
func TestClosedLoopDynamics(t *testing.T) {
	r := testRun(t, nil, 42)
	if r.Served == 0 {
		t.Fatal("fleet served nothing")
	}
	if r.Retunes == 0 || r.Remaps == 0 {
		t.Errorf("cascade incomplete: retunes=%d remaps=%d", r.Retunes, r.Remaps)
	}
	if r.Deaths == 0 || r.FirstDeathTick == 0 {
		t.Errorf("no instance aged out in the fast horizon: deaths=%d first=%d", r.Deaths, r.FirstDeathTick)
	}
	if r.Replacements == 0 || r.ReplacementCost == 0 {
		t.Errorf("replacement policy never fired: %d / %g", r.Replacements, r.ReplacementCost)
	}
	if r.Deaths > r.Instances {
		t.Errorf("original-cohort deaths %d exceed cohort size %d", r.Deaths, r.Instances)
	}
	if r.AccP99 <= 0 || r.AccP99 > 1 || r.AccP50 < r.AccP99 {
		t.Errorf("accuracy quantiles incoherent: p50=%g p99=%g", r.AccP50, r.AccP99)
	}
	if r.LatencyP99 < r.LatencyP50 {
		t.Errorf("latency quantiles incoherent: p50=%g p99=%g", r.LatencyP50, r.LatencyP99)
	}
	// Survival must start at 1, never increase, and match the final
	// alive fraction.
	if len(r.Survival) < 2 {
		t.Fatalf("survival curve too short: %d points", len(r.Survival))
	}
	prev := 1.0
	for i, pt := range r.Survival {
		if pt.Alive > prev {
			t.Fatalf("survival increased at point %d: %v -> %v", i, prev, pt.Alive)
		}
		prev = pt.Alive
	}
	if got := r.Survival[len(r.Survival)-1].Alive; got != r.FinalAlive {
		t.Errorf("final survival point %v != FinalAlive %v", got, r.FinalAlive)
	}
}

// TestDeterminism: identical inputs must produce identical results —
// including the survival curve — and a different seed must not.
func TestDeterminism(t *testing.T) {
	a := testRun(t, nil, 7)
	b := testRun(t, nil, 7)
	if len(a.Survival) != len(b.Survival) {
		t.Fatal("survival curves differ in length for equal seeds")
	}
	for i := range a.Survival {
		if a.Survival[i] != b.Survival[i] {
			t.Fatalf("survival point %d differs: %+v vs %+v", i, a.Survival[i], b.Survival[i])
		}
	}
	a.Survival, b.Survival = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds diverged:\n%+v\n%+v", a, b)
	}
	c := testRun(t, nil, 8)
	if c.Served == a.Served && c.Dropped == a.Dropped && c.FirstDeathTick == a.FirstDeathTick {
		t.Error("different seed produced an identical run (suspicious)")
	}
}

// TestBalancersMatter: routing policy must change fleet outcomes under
// a skewed key mix.
func TestBalancersMatter(t *testing.T) {
	zipf := func(bal string) func(*Config) {
		return func(c *Config) {
			c.Balancer = bal
			c.Traffic.Pattern = PatternZipf
		}
	}
	rr := testRun(t, zipf(BalRoundRobin), 42)
	ha := testRun(t, zipf(BalHashAffinity), 42)
	la := testRun(t, zipf(BalLeastAged), 42)
	if rr.Dropped == ha.Dropped && rr.Served == ha.Served {
		t.Error("hash-affinity behaved identically to round-robin under Zipf skew")
	}
	if rr.Dropped == la.Dropped && rr.Served == la.Served {
		t.Error("least-aged behaved identically to round-robin")
	}
}

// TestTrafficPatternsMatter: the load envelope must shape outcomes.
func TestTrafficPatternsMatter(t *testing.T) {
	pat := func(p string) func(*Config) {
		return func(c *Config) { c.Traffic.Pattern = p }
	}
	diurnal := testRun(t, pat(PatternDiurnal), 42)
	bursty := testRun(t, pat(PatternBursty), 42)
	if diurnal.Served == bursty.Served && diurnal.Dropped == bursty.Dropped {
		t.Error("bursty traffic behaved identically to diurnal")
	}
	if bursty.Served <= 0 {
		t.Error("bursty pattern served nothing")
	}
}

// TestNoReplacementFleetDecays: with replacement off, the fleet must
// decay to (near) zero live instances and never pay replacement cost.
func TestNoReplacementFleetDecays(t *testing.T) {
	r := testRun(t, func(c *Config) { c.Replace.Enabled = false }, 42)
	if r.Replacements != 0 || r.ReplacementCost != 0 {
		t.Errorf("replacement fired while disabled: %d / %g", r.Replacements, r.ReplacementCost)
	}
	if r.Deaths == 0 || r.FinalAlive >= 1 {
		t.Errorf("fleet did not decay: deaths=%d final_alive=%g", r.Deaths, r.FinalAlive)
	}
}

// TestEagerTuningTradesWearForAccuracy: a larger tune margin retunes
// earlier and more often.
func TestEagerTuningTradesWearForAccuracy(t *testing.T) {
	lazy := testRun(t, func(c *Config) { c.Service.TuneMargin = 0 }, 42)
	eager := testRun(t, func(c *Config) { c.Service.TuneMargin = 0.05 }, 42)
	if eager.Retunes <= lazy.Retunes {
		t.Errorf("eager policy did not retune more: eager=%d lazy=%d", eager.Retunes, lazy.Retunes)
	}
}

// TestRunRejectsInvalidConfig: New must refuse configurations the
// device can never satisfy.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := Defaults(10, true)
	p := device.Params32()
	p.Levels = minLevels - 1 // every level usable fresh, still below the floor
	if _, err := New(cfg, p, testModel(), 300, 1); err == nil || !strings.Contains(err.Error(), "usable levels") {
		t.Fatalf("a fresh device below the usable-level floor must be rejected, got %v", err)
	}
	if _, err := New(cfg, device.Params32(), testModel(), -1, 1); err == nil {
		t.Fatal("non-positive temperature must be rejected")
	}
}

// TestCancellation: Run must honor context cancellation.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Defaults(10, false)
	if _, err := Run(ctx, cfg, device.Params32(), testModel(), 300, 1); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

// TestTickSteadyStateZeroAlloc pins the tick loop at zero heap
// allocations per tick. The instance table, routing scratch, sketches
// and RNG are all preallocated at New.
func TestTickSteadyStateZeroAlloc(t *testing.T) {
	cfg := Defaults(10, true)
	cfg.Balancer = BalLeastAged // the policy with the most per-tick scratch work
	s, err := New(cfg, device.Params32(), testModel(), 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Tick() // warm past first-touch growth
	}
	allocs := testing.AllocsPerRun(200, func() { s.Tick() })
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates: %v allocs/op", allocs)
	}
}
