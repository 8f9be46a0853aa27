package experiments

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"memlife/internal/campaign"
)

func TestByIDHit(t *testing.T) {
	e, ok := ByID("fig4")
	if !ok {
		t.Fatal("fig4 must be registered")
	}
	if e.ID != "fig4" || e.Run == nil {
		t.Fatalf("ByID returned a malformed experiment: %+v", e)
	}
}

func TestAllSortedByID(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("All() must be sorted by ID, got %v", ids)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate ID must panic")
		}
	}()
	register(Experiment{ID: "fig4", Title: "dup", Run: nil})
}

// TestBundleCacheSingleflight hammers the fixture cache from many
// goroutines: every caller must get the same bundle pointer and the
// build must happen exactly once (run with -race to catch locking
// regressions in the per-key singleflight).
func TestBundleCacheSingleflight(t *testing.T) {
	opt := Options{Fast: true, Seed: 424241} // unique seed: cold cache entry
	const callers = 16
	bundles := make([]*Bundle, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := LeNetBundle(opt)
			if err != nil {
				t.Error(err)
				return
			}
			bundles[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if bundles[i] != bundles[0] {
			t.Fatal("concurrent callers must share one cached bundle")
		}
	}
}

// TestBundleCacheRetriesAfterCancellation: a build aborted by a
// cancelled context must not poison the cache — the next caller with a
// live context gets a real bundle.
func TestBundleCacheRetriesAfterCancellation(t *testing.T) {
	opt := Options{Fast: true, Seed: 424242}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Ctx = ctx
	if _, err := LeNetBundle(opt); err == nil {
		t.Fatal("cancelled build must fail")
	}
	opt.Ctx = nil
	if _, err := LeNetBundle(opt); err != nil {
		t.Fatalf("cache poisoned by cancelled build: %v", err)
	}
}

func TestMetricSlug(t *testing.T) {
	cases := map[string]string{
		"LeNet-5":           "lenet-5", // no qualifier: historical slug preserved
		"LeNet-5 (MNIST)":   "lenet-5-mnist",
		"VGG-16 (CIFAR-10)": "vgg-16-cifar-10",
		"VGG-16(x0.25)":     "vgg-16-x0.25",
		"Some Net":          "some-net",
		" Padded (x) ":      "padded-x",
	}
	for in, want := range cases {
		if got := metricSlug(in); got != want {
			t.Errorf("metricSlug(%q) = %q, want %q", in, got, want)
		}
	}
	// The regression that motivated the rewrite: display names differing
	// only inside the parenthesised qualifier must not merge into one
	// aggregation key.
	if metricSlug("MLP (MNIST)") == metricSlug("MLP (CIFAR)") {
		t.Fatal("qualifier-only differences must produce distinct slugs")
	}
}

// TestFig4MetricsDeterministic: fig4 is the campaign plumbing vehicle;
// its metrics must not depend on the seed.
func TestFig4MetricsDeterministic(t *testing.T) {
	a, err := fig4Metrics(Options{Fast: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fig4Metrics(Options{Fast: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fig4 metrics vary with seed: %v vs %v", a, b)
	}
	if a["levels_fresh"] <= a["levels_final"] {
		t.Fatalf("aging must shrink the usable level count: %v", a)
	}
}

// TestCampaignResolver checks the registry adapter: experiments with a
// Metrics hook resolve, others do not, and the runner threads the
// shard seed and log through Options.
func TestCampaignResolver(t *testing.T) {
	resolve := CampaignResolver()
	if _, ok := resolve("fig3"); ok {
		t.Fatal("fig3 has no Metrics hook and must not resolve")
	}
	if _, ok := resolve("no-such"); ok {
		t.Fatal("unknown experiments must not resolve")
	}
	run, ok := resolve("fig4")
	if !ok {
		t.Fatal("fig4 must resolve")
	}
	m, err := run(context.Background(), campaign.Shard{Experiment: "fig4", Seed: 7, Fast: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m["points"] != 10 {
		t.Fatalf("fast fig4 must report 10 points, got %v", m["points"])
	}
}

// TestConcurrentExperimentsSharedLog runs cheap experiments that all
// read the shared LeNet bundle in parallel, each writing through a
// per-shard view of one SyncWriter — the campaign pool's exact wiring.
// With -race this is the thread-safety test for both Options.Log
// multiplexing and the lock-free sharing of the read-only cached bundle.
func TestConcurrentExperimentsSharedLog(t *testing.T) {
	var buf bytes.Buffer
	sw := campaign.NewSyncWriter(&buf)
	ids := []string{"fig3", "fig4", "fig6", "fig7", "fig8", "table2", "differential"}
	var wg sync.WaitGroup
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			view := sw.Shard(campaign.Shard{Experiment: e.ID, SeedIndex: 0}.Label())
			defer view.Close()
			opt := Options{Fast: true, Seed: 1, Log: view}
			if err := e.Run(view, opt); err != nil {
				t.Errorf("%s: %v", e.ID, err)
			}
		}(i, e)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "[") || !strings.Contains(line, "#0] ") {
			t.Fatalf("log line lost its shard prefix: %q", line)
		}
	}
}
