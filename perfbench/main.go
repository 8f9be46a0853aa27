// Command perfbench is memlife's end-to-end benchmark. One invocation
// runs one workload for a fixed measuring time and prints, as its last
// line, a JSON object with the keys correct, attempted, failed and
// metrics. Untraced runs (-trace 0) report the end-to-end metrics; a
// traced run (-trace 1) reports the per-layer metrics of NOTES.md.
//
//	go build -o perfbench . && ./perfbench -workload table1-lenet -seed 1 -seconds 15 -trace 0
//
// Run it from the repository root (perfbench/run.sh does), so that the
// reference file and the scratch directory resolve.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) setTally(t tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.attempted > 0 && t.failed == 0
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is a scratch directory inside the checkout for the serve
	// store and the span file.
	dir string
	// ref holds the committed reference outputs; writeRef regenerates
	// them for the default seed instead of checking against them.
	ref      *reference
	writeRef bool
}

type workloadFunc func(o options) (*report, error)

var workloads = map[string]workloadFunc{
	"table1-lenet":  runLifetimeWorkload,
	"remap-lenet":   runLifetimeWorkload,
	"fixture-lenet": runFixtureWorkload,
	"serve-jobs":    runServeWorkload,
}

func main() {
	var o options
	var trace int
	var refPath string
	flag.StringVar(&o.workload, "workload", "", "workload name (table1-lenet, remap-lenet, fixture-lenet, serve-jobs)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.StringVar(&refPath, "reference", filepath.Join("perfbench", "reference.json"), "reference outputs for the default seed")
	flag.BoolVar(&o.writeRef, "write-reference", false, "record this run's outputs as the reference (default seed only)")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || flag.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", o.workload)
		flag.Usage()
		os.Exit(2)
	}
	if o.writeRef && o.seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: -write-reference needs -seed %d\n", defaultSeed)
		os.Exit(2)
	}
	var err error
	if o.ref, err = readReference(refPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if o.writeRef {
		if err := o.ref.write(refPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// durations converts durations to float seconds.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
