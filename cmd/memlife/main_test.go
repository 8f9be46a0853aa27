package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCLIErrors locks the CLI's user-error behavior: one-line
// diagnostics on stderr and distinct non-zero exit codes, never a
// panic or stack trace.
func TestRunCLIErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr; empty means stderr unchecked
	}{
		{"unknown experiment", []string{"-run", "no-such-experiment"}, 1, `unknown experiment "no-such-experiment"`},
		{"all and run conflict", []string{"-all", "-run", "table1"}, 2, "mutually exclusive"},
		{"undefined flag", []string{"-bogus"}, 2, ""},
		{"stray positional arg", []string{"-fast", "table1"}, 2, `unexpected argument "table1"`},
		{"no action", []string{"-fast"}, 2, ""},
		{"campaign without selection", []string{"-seeds", "3"}, 2, "needs -run or -all"},
		{"bad seed count", []string{"-run", "fig4", "-seeds", "0"}, 2, "-seeds must be >= 1"},
		{"resume without journal", []string{"-run", "fig4", "-resume"}, 2, "-resume needs -checkpoint or -json"},
		{"campaign of metricless experiment", []string{"-run", "fig3", "-seeds", "2"}, 1, ""},
		{"campaign of unknown experiment", []string{"-run", "nope", "-seeds", "2"}, 1, `unknown experiment "nope"`},
		{"serve has no retry flag", []string{"serve", "-retries", "3"}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(context.Background(), tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q must contain %q", stderr.String(), tc.wantErr)
			}
			if n := strings.Count(strings.TrimSpace(stderr.String()), "\n"); tc.wantErr != "" && n > 0 {
				t.Fatalf("user error must be a one-line message, got %d extra lines:\n%s", n, stderr.String())
			}
		})
	}
}

// TestRunCLIList smoke-tests the success path that needs no training.
func TestRunCLIList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, id := range []string{"table1", "fault-sweep", "fleet-survival"} {
		if !strings.Contains(stdout.String(), id) {
			t.Fatalf("-list output must mention %s:\n%s", id, stdout.String())
		}
	}
}

// campaignJSON runs one fig4 campaign and returns the canonical JSON
// bytes. fig4 is training-free, so these end-to-end runs cost
// milliseconds.
func campaignJSON(t *testing.T, extra ...string) []byte {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	args := append([]string{"-run", "fig4", "-fast", "-seeds", "4", "-json", out}, extra...)
	var stdout, stderr strings.Builder
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("campaign exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "levels_final") {
		t.Fatalf("campaign summary must list metrics:\n%s", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignJSONDeterministicAcrossWorkers is the CLI half of the
// determinism guarantee: -workers 1 and -workers 4 must produce
// byte-identical aggregated JSON.
func TestCampaignJSONDeterministicAcrossWorkers(t *testing.T) {
	one := campaignJSON(t, "-workers", "1")
	four := campaignJSON(t, "-workers", "4")
	if string(one) != string(four) {
		t.Fatalf("-workers must not change the JSON:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", one, four)
	}
}

// TestCampaignResume reruns a finished campaign with -resume: every
// shard must come from the journal and the JSON must not change.
func TestCampaignResume(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	base := []string{"-run", "fig4", "-fast", "-seeds", "3", "-json", out}

	var stdout, stderr strings.Builder
	if code := run(context.Background(), base, &stdout, &stderr); code != 0 {
		t.Fatalf("first run exited %d: %s", code, stderr.String())
	}
	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out + ".ckpt.jsonl"); err != nil {
		t.Fatalf("-json must imply a checkpoint journal: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), append(base, "-resume", "-v"), &stdout, &stderr); code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr.String())
	}
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("resumed JSON differs:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(stderr.String(), "from checkpoint") {
		t.Fatalf("-v resume run must report checkpointed shards:\n%s", stderr.String())
	}
}

// TestCampaignSeedSensitivity: different base seeds must change the
// shard seeds (and so the fingerprint/JSON), or the campaign would
// silently rerun identical work.
func TestCampaignSeedSensitivity(t *testing.T) {
	a := campaignJSON(t, "-seed", "1")
	b := campaignJSON(t, "-seed", "2")
	if string(a) == string(b) {
		t.Fatal("different base seeds must produce different campaign JSON")
	}
}

// TestParallelAllOrdersOutput runs several cheap experiments through
// the parallel text path and checks stdout keeps selection order.
func TestParallelAllOrdersOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-run", "fig4,fig3,fig6", "-fast", "-workers", "3"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("parallel run exited %d: %s", code, stderr.String())
	}
	got := stdout.String()
	i4 := strings.Index(got, "=== fig4:")
	i3 := strings.Index(got, "=== fig3:")
	i6 := strings.Index(got, "=== fig6:")
	if i4 < 0 || i3 < 0 || i6 < 0 || !(i4 < i3 && i3 < i6) {
		t.Fatalf("parallel output must keep selection order (fig4 < fig3 < fig6), got offsets %d %d %d:\n%s", i4, i3, i6, got)
	}
}

// TestCancelledContextAborts: an already-cancelled context must abort
// the campaign with an error, leaving the checkpoint for a resume.
func TestCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr strings.Builder
	dir := t.TempDir()
	args := []string{"-run", "fig4", "-fast", "-seeds", "3", "-json", filepath.Join(dir, "out.json")}
	if code := run(ctx, args, &stdout, &stderr); code != 1 {
		t.Fatalf("cancelled campaign must exit 1, got %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr must mention the interruption:\n%s", stderr.String())
	}
}

// TestVersionFlag: -version prints a build identifier and exits 0.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(context.Background(), []string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exited %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "memlife ") {
		t.Fatalf("-version output must start with the binary name, got %q", stdout.String())
	}
}

// TestCPUProfileExperimentRun: -cpuprofile profiles a plain experiment
// run. It must leave a non-empty, gzip-framed pprof file behind.
func TestCPUProfileExperimentRun(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "p")
	var stdout, stderr strings.Builder
	if code := run(context.Background(), []string{"-run", "fig4", "-fast", "-cpuprofile", prof}, &stdout, &stderr); code != 0 {
		t.Fatalf("fig4 with -cpuprofile exited %d: %s", code, stderr.String())
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile must be a non-empty gzip stream, got %d bytes starting %x", len(b), b[:min(len(b), 2)])
	}
}

// dumpSpec runs -dump-spec with the given extra args and returns stdout.
func dumpSpec(t *testing.T, extra ...string) string {
	t.Helper()
	var stdout, stderr strings.Builder
	args := append([]string{"-dump-spec"}, extra...)
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("-dump-spec %v exited %d: %s", extra, code, stderr.String())
	}
	return stdout.String()
}

// TestDumpSpecRoundTrip is the CLI half of the resolution contract: the
// dumped spec is valid JSON that, fed back through -scenario, resolves
// to byte-identical output — and explicitly set flags override the file.
func TestDumpSpecRoundTrip(t *testing.T) {
	defaults := dumpSpec(t)
	for _, want := range []string{`"version": 1`, `"name": "lenet"`, `"scenario": "ST+AT"`, `"max_iters": 150`} {
		if !strings.Contains(defaults, want) {
			t.Fatalf("default dump must contain %s:\n%s", want, defaults)
		}
	}

	// Feeding a dump back through -scenario must reproduce it exactly.
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(defaults), 0o644); err != nil {
		t.Fatal(err)
	}
	if back := dumpSpec(t, "-scenario", path); back != defaults {
		t.Fatalf("-dump-spec | -scenario round trip drifted:\ngot:\n%s\nwant:\n%s", back, defaults)
	}

	// An explicitly set flag overrides the file. The full dump pins every
	// field, so -fast flips only run.fast there; against a sparse file
	// the flag also picks the fast defaults tier for unmentioned fields.
	fast := dumpSpec(t, "-scenario", path, "-fast", "-seed", "9")
	if !strings.Contains(fast, `"fast": true`) || !strings.Contains(fast, `"seed": 9`) {
		t.Fatalf("explicit flags must override the scenario file:\n%s", fast)
	}
	if !strings.Contains(fast, `"max_iters": 150`) {
		t.Fatalf("fields pinned by the file must survive -fast:\n%s", fast)
	}
	sparse := filepath.Join(dir, "sparse.json")
	if err := os.WriteFile(sparse, []byte(`{"version": 1, "scenario": "T+T"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tiered := dumpSpec(t, "-scenario", sparse, "-fast")
	if !strings.Contains(tiered, `"max_iters": 40`) || !strings.Contains(tiered, `"scenario": "T+T"`) {
		t.Fatalf("-fast over a sparse file must select the fast defaults tier:\n%s", tiered)
	}
}

// TestScenarioCLIErrors: spec-mode user errors are one-line diagnostics.
func TestScenarioCLIErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 1, "scenaro": "T+T"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"scenario with run", []string{"-scenario", bad, "-run", "table1"}, 2, "exclude"},
		{"scenario with campaign", []string{"-scenario", bad, "-seeds", "3"}, 2, "exclude"},
		{"bench is not a flag", []string{"-dump-spec", "-bench"}, 2, "flag provided but not defined: -bench"},
		{"eval-workers is not a flag", []string{"-dump-spec", "-eval-workers", "2"}, 2, "flag provided but not defined: -eval-workers"},
		{"unknown field", []string{"-scenario", bad}, 1, "scenaro"},
		{"missing file", []string{"-scenario", filepath.Join(dir, "absent.json")}, 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(context.Background(), tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q must contain %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestExampleScenariosResolve: every shipped example must resolve and
// validate against the current schema (the CI scenarios job then runs
// them end to end).
func TestExampleScenariosResolve(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example scenarios found")
	}
	for _, f := range files {
		out := dumpSpec(t, "-scenario", f)
		if !strings.Contains(out, `"version": 1`) {
			t.Fatalf("%s: resolved dump looks wrong:\n%s", f, out)
		}
	}
}
