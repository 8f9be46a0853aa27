package fault

import (
	"testing"

	"memlife/internal/device"
)

func testConfig() Config {
	return Config{
		StuckRate:      0.1,
		LRSFrac:        0.5,
		TransientProb:  0.2,
		HazardScale:    10,
		HazardSpread:   0.5,
		ReadBurstProb:  0.1,
		ReadBurstSigma: 0.02,
		Seed:           7,
	}
}

func TestInjectorDeterminism(t *testing.T) {
	const n = 500
	a, err := NewInjector(testConfig(), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(testConfig(), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if a.InitialFault(i) != b.InitialFault(i) {
			t.Fatalf("device %d: initial fault maps diverge", i)
		}
		if a.WearOutFault(i, 9.5) != b.WearOutFault(i, 9.5) {
			t.Fatalf("device %d: wear-out capacities diverge", i)
		}
	}
	// The event streams are deterministic too.
	for k := 0; k < 200; k++ {
		if a.PulseFails() != b.PulseFails() {
			t.Fatalf("pulse stream diverges at draw %d", k)
		}
		ab, as := a.ReadBurst()
		bb, bs := b.ReadBurst()
		if ab != bb || as != bs {
			t.Fatalf("read stream diverges at draw %d", k)
		}
	}
}

// TestStructuralDrawsIndependentOfEvents locks the stream separation:
// however many pulse/read events a simulation consumes, the fault map
// and capacities stay byte-identical.
func TestStructuralDrawsIndependentOfEvents(t *testing.T) {
	const n = 300
	a, err := NewInjector(testConfig(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(testConfig(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Burn b's event streams heavily before comparing structure.
	for k := 0; k < 10_000; k++ {
		b.PulseFails()
		b.ReadBurst()
	}
	for i := 0; i < n; i++ {
		if a.InitialFault(i) != b.InitialFault(i) {
			t.Fatalf("device %d: fault map depends on event consumption", i)
		}
		if a.WearOutFault(i, 9.9) != b.WearOutFault(i, 9.9) {
			t.Fatalf("device %d: capacity depends on event consumption", i)
		}
	}
}

// TestNestedStuckSets locks the sweep monotonicity guarantee: every
// device stuck at a low rate is also stuck at any higher rate under the
// same seed.
func TestNestedStuckSets(t *testing.T) {
	const n = 2000
	rates := []float64{0.01, 0.05, 0.2}
	var prev []bool
	for _, rate := range rates {
		cfg := testConfig()
		cfg.StuckRate = rate
		inj, err := NewInjector(cfg, n, 11)
		if err != nil {
			t.Fatal(err)
		}
		stuck := make([]bool, n)
		count := 0
		for i := 0; i < n; i++ {
			stuck[i] = inj.InitialFault(i) != device.FaultNone
			if stuck[i] {
				count++
			}
		}
		if count == 0 {
			t.Fatalf("rate %g produced no stuck devices out of %d", rate, n)
		}
		for i := range prev {
			if prev[i] && !stuck[i] {
				t.Fatalf("device %d stuck at a lower rate but healthy at %g", i, rate)
			}
		}
		prev = stuck
	}
}

// TestWearOutHazardOrdering locks the aging correlation: a device never
// recovers with stress, and across the array more stress means more
// wear-out faults.
func TestWearOutHazardOrdering(t *testing.T) {
	cfg := testConfig()
	cfg.StuckRate = 0
	inj, err := NewInjector(cfg, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	countAt := func(stress float64) int {
		n := 0
		for i := 0; i < inj.N(); i++ {
			if inj.WearOutFault(i, stress) != device.FaultNone {
				n++
			}
		}
		return n
	}
	low, mid, high := countAt(1), countAt(10), countAt(100)
	if low > mid || mid > high {
		t.Fatalf("wear-out faults must be monotone in stress: %d, %d, %d", low, mid, high)
	}
	if high <= low {
		t.Fatalf("heavy stress must wear out more devices: %d vs %d", high, low)
	}
	// Per device: once stuck at some stress, stuck at any higher stress.
	for i := 0; i < inj.N(); i++ {
		if inj.WearOutFault(i, 10) != device.FaultNone && inj.WearOutFault(i, 20) == device.FaultNone {
			t.Fatalf("device %d recovered with more stress", i)
		}
	}
}

// TestLRSFracPolarity: LRSFrac 1 pins every stuck device at LRS and
// LRSFrac 0 pins every one at HRS; zero is not a default.
func TestLRSFracPolarity(t *testing.T) {
	for _, tc := range []struct {
		lrsFrac float64
		want    device.FaultKind
	}{{1, device.FaultStuckLRS}, {0, device.FaultStuckHRS}} {
		inj, err := NewInjector(Config{StuckRate: 0.5, LRSFrac: tc.lrsFrac, Seed: 7}, 500, 4)
		if err != nil {
			t.Fatal(err)
		}
		stuck := 0
		for i := 0; i < inj.N(); i++ {
			if k := inj.InitialFault(i); k != device.FaultNone {
				stuck++
				if k != tc.want {
					t.Fatalf("LRSFrac=%g must pin every stuck device at %v, got %v", tc.lrsFrac, tc.want, k)
				}
			}
		}
		if stuck == 0 {
			t.Fatalf("LRSFrac=%g: rate 0.5 produced no stuck devices", tc.lrsFrac)
		}
	}
}

func TestReadNoiseFloored(t *testing.T) {
	inj, err := NewInjector(testConfig(), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 1000; k++ {
		if f := inj.ReadNoise(5.0); f < 0.1 {
			t.Fatalf("read-noise factor %g must never drop below the floor", f)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative stuck rate", func(c *Config) { c.StuckRate = -0.1 }},
		{"stuck rate one", func(c *Config) { c.StuckRate = 1 }},
		{"bad lrs frac", func(c *Config) { c.LRSFrac = 1.5 }},
		{"bad transient", func(c *Config) { c.TransientProb = 1 }},
		{"negative hazard", func(c *Config) { c.HazardScale = -1 }},
		{"negative spread", func(c *Config) { c.HazardSpread = -0.5 }},
		{"bad burst prob", func(c *Config) { c.ReadBurstProb = -0.2 }},
		{"negative burst sigma", func(c *Config) { c.ReadBurstSigma = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if !(Config{HazardScale: 1}).Enabled() {
		t.Fatal("hazard alone must enable injection")
	}
}

func TestNewInjectorRejectsBadInput(t *testing.T) {
	if _, err := NewInjector(Config{StuckRate: -1}, 10, 0); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	if _, err := NewInjector(Config{}, 0, 0); err == nil {
		t.Fatal("empty array must be rejected")
	}
}
