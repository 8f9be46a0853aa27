package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenHeavy marks the experiments whose golden check runs full
// lifetime simulations (minutes each at fast scale). They are skipped
// unless MEMLIFE_GOLDEN_ALL=1, keeping the default test suite's runtime
// bounded while the complete sweep stays one env var away:
//
//	MEMLIFE_GOLDEN_ALL=1 go test -run TestGoldenEquivalence ./internal/experiments/
var goldenHeavy = map[string]bool{
	"table1":            true,
	"fault-sweep":       true,
	"fig10":             true,
	"fig10vgg":          true,
	"fig11":             true,
	"temperature":       true,
	"related-work":      true,
	"ablation-stress":   true,
	"ablation-tracing":  true,
	"ablation-levels":   true,
	"ablation-policy":   true,
	"crossmodel-table1": true,
}

// TestGoldenEquivalence is the spec-refactor acceptance gate: every
// registered experiment, driven through the unified scenario-spec path,
// must produce byte-identical output to the pre-refactor drivers. The
// goldens in testdata/golden were captured with
//
//	memlife -all -fast -seed 1 -out testdata/golden
//
// at the last commit before the spec layer landed; the -out files hold
// exactly each experiment's Run bytes (the "=== id ===" headers go only
// to stdout). Any byte drift here means a resolved default or an
// execution order changed — intentional changes must re-capture the
// goldens the same way and say so in the commit.
func TestGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence trains both bundles; skipped in -short")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden files found")
	}
	all := os.Getenv("MEMLIFE_GOLDEN_ALL") == "1"
	covered := 0
	for _, path := range files {
		id := strings.TrimSuffix(filepath.Base(path), ".txt")
		t.Run(id, func(t *testing.T) {
			if goldenHeavy[id] && !all {
				t.Skipf("%s runs full lifetime simulations; set MEMLIFE_GOLDEN_ALL=1 to include it", id)
			}
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("golden file for unregistered experiment %q", id)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, testOpt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output of %s drifted from the pre-refactor golden (len %d vs %d)\n--- got ---\n%s\n--- want ---\n%s",
					id, buf.Len(), len(want), clip(buf.String()), clip(string(want)))
			}
		})
		covered++
	}
	// Every registered experiment must have a golden — a new
	// experiment without one silently escapes the equivalence gate.
	for _, e := range All() {
		if _, err := os.Stat(filepath.Join("testdata", "golden", e.ID+".txt")); err != nil {
			t.Errorf("experiment %q has no golden file; capture one with: memlife -run %s -fast -seed 1 -out testdata/golden", e.ID, e.ID)
		}
	}
}

func clip(s string) string {
	const max = 2000
	if len(s) > max {
		return s[:max] + "\n... (clipped)"
	}
	return s
}
