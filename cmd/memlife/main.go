// Command memlife runs the reproduction experiments of "Aging-aware
// Lifetime Enhancement for Memristor-based Neuromorphic Computing"
// (DATE 2019). Each experiment regenerates one table or figure of the
// paper's evaluation; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	memlife -list
//	memlife -run table1 [-fast] [-seed N] [-v]
//	memlife -all [-fast] [-workers M]
//	memlife -run table1,fault-sweep -seeds 5 -workers 4 -json out.json [-resume]
//	memlife -scenario file.json [-fast] [-seed N] [-dump-spec]
//	memlife serve -addr 127.0.0.1:8080 -store dir [-v]
//	memlife doctor -store dir
//	memlife -version
//
// Exit codes: 0 success (including a graceful serve drain), 1 runtime
// failure, 2 usage error, 3 force-exit (a second SIGINT/SIGTERM while
// the first one's graceful drain was still in progress).
//
// With -seeds/-json/-resume the selected experiments run as a Monte
// Carlo campaign: every (experiment, seed) pair becomes one shard on a
// bounded worker pool, completed shards are journaled to a checkpoint,
// and the aggregated JSON is byte-identical whatever the worker count.
// -stream switches the campaign to online constant-memory aggregation
// (identical statistics bits, plus quantile sketches, minus the
// per-shard list).
//
// With -scenario a custom scenario spec (see internal/spec and
// examples/scenarios/) is resolved defaults -> file -> flags, validated
// and run as a one-off lifetime simulation; -dump-spec prints the fully
// resolved spec instead of running it.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"memlife/internal/campaign"
	"memlife/internal/experiments"
	"memlife/internal/spec"
	"memlife/internal/telemetry"
)

// exitForced is the exit code of a second interrupt: the first always
// starts a graceful drain (cancel the run context, checkpoint, flush
// telemetry), the second abandons it immediately. Distinct from 1
// (runtime failure) and 2 (usage) so wrappers can tell a hard kill
// from a failed run.
const exitForced = 3

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain wires the two-stage signal contract around run: the first
// SIGINT/SIGTERM cancels the context (every mode treats that as
// "drain and exit cleanly"); a second one force-exits with exitForced
// for runs whose drain hangs or takes longer than the operator's
// patience. Extracted from main so the e2e tests can exercise the real
// signal path in a helper process.
func realMain(args []string, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "memlife: %v: draining (send again to force-exit)\n", s)
		cancel()
		if _, ok := <-sig; ok {
			os.Exit(exitForced)
		}
	}()
	return run(ctx, args, stdout, stderr)
}

// cliConfig is the parsed flag set of one invocation.
type cliConfig struct {
	list       bool
	runIDs     string
	all        bool
	fast       bool
	seed       int64
	verb       bool
	outDir     string
	seeds      int
	workers    int
	jsonOut    string
	checkpoint string
	resume     bool
	stream     bool

	scenario     string
	deviceModel  string
	tuningPolicy string
	dumpSpec     bool
	version      bool

	metricsOut string
	traceOut   string
	debugAddr  string

	cpuProfile string

	// overrides carries the explicitly set CLI flags into stage 3 of
	// the spec resolution chain (spec.Overrides); flags left at their
	// defaults do not override scenario-file values.
	overrides spec.Overrides
}

// run is the testable CLI entry point: it parses args, executes the
// requested experiments, and returns the process exit code. User errors
// (unknown experiment id, conflicting flags) produce a one-line message
// on stderr and a non-zero code — never a stack trace.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// Subcommands route before flag parsing; everything else is the
	// historical flag-driven CLI.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "serve":
			return runServe(ctx, args[1:], stdout, stderr)
		case "doctor":
			return runDoctor(args[1:], stdout, stderr)
		default:
			fmt.Fprintf(stderr, "memlife: unknown subcommand %q (want serve or doctor; experiments are selected with -run)\n", args[0])
			return 2
		}
	}
	fs := flag.NewFlagSet("memlife", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c cliConfig
	fs.BoolVar(&c.list, "list", false, "list available experiments")
	fs.StringVar(&c.runIDs, "run", "", "comma-separated experiment ids to run")
	fs.BoolVar(&c.all, "all", false, "run every experiment")
	fs.BoolVar(&c.fast, "fast", false, "use reduced sizes/budgets (seconds instead of minutes)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed (campaign: base seed of the shard derivation)")
	fs.BoolVar(&c.verb, "v", false, "log progress to stderr")
	fs.StringVar(&c.outDir, "out", "", "also write each experiment's output to <dir>/<id>.txt")
	fs.IntVar(&c.seeds, "seeds", 1, "campaign: seeds per experiment (>1 selects campaign mode)")
	fs.IntVar(&c.workers, "workers", 0, "bound on parallel workers (0 = GOMAXPROCS)")
	fs.StringVar(&c.jsonOut, "json", "", "campaign: write aggregated results as canonical JSON to this file")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "campaign: shard journal path (default <json>.ckpt.jsonl)")
	fs.BoolVar(&c.resume, "resume", false, "campaign: skip shards already journaled in the checkpoint")
	fs.BoolVar(&c.stream, "stream", false, "campaign: aggregate shard metrics online in constant memory (adds quantiles, drops the per-shard list from the JSON)")
	fs.StringVar(&c.scenario, "scenario", "", "run one scenario spec file (JSON, see examples/scenarios/); flags set explicitly override the file")
	fs.StringVar(&c.deviceModel, "device-model", "", "override the device-physics model kind: linear, mms, yacopcic or diffusive")
	fs.StringVar(&c.tuningPolicy, "tuning-policy", "", "override the tuning pulse-selection policy: sign, recalib or minreprog")
	fs.BoolVar(&c.dumpSpec, "dump-spec", false, "resolve the scenario spec (defaults, -scenario file, flags) and print it as JSON instead of running")
	fs.BoolVar(&c.version, "version", false, "print the build version and exit")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write a telemetry snapshot (canonical JSON) to this file on exit")
	fs.StringVar(&c.traceOut, "trace-out", "", "stream telemetry spans/events as JSONL to this file")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve /metrics/json, /healthz and net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (pprof format); covers experiments, campaigns and scenarios")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Only flags the user actually set become spec overrides — a flag's
	// default must not clobber a scenario-file value.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fast":
			c.overrides.Fast = &c.fast
		case "seed":
			c.overrides.Seed = &c.seed
		case "device-model":
			c.overrides.DeviceModel = &c.deviceModel
		case "tuning-policy":
			c.overrides.TuningPolicy = &c.tuningPolicy
		}
	})
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "memlife: unexpected argument %q (experiments are selected with -run)\n", fs.Arg(0))
		return 2
	}
	if c.all && c.runIDs != "" {
		fmt.Fprintln(stderr, "memlife: -all and -run are mutually exclusive")
		return 2
	}
	if c.seeds < 1 {
		fmt.Fprintln(stderr, "memlife: -seeds must be >= 1")
		return 2
	}
	if c.version {
		fmt.Fprintf(stdout, "memlife %s\n", buildVersion())
		return 0
	}

	// The CPU profile and telemetry span the whole invocation whatever
	// mode runs below; the telemetry session writes -metrics-out and
	// closes -trace-out/-debug-addr on the way out (even when the mode
	// fails).
	stopProfile, code := startCPUProfile(c.cpuProfile, stderr)
	if code != 0 {
		return code
	}
	defer stopProfile()
	tel, code := startTelemetry(c, stderr)
	if code != 0 {
		return code
	}
	code = dispatch(ctx, c, fs, stdout, stderr)
	if tcode := tel.finish(stderr); code == 0 {
		code = tcode
	}
	return code
}

// startCPUProfile starts the -cpuprofile CPU profile (a no-op without
// the flag) and returns the function that stops it and closes the
// file.
func startCPUProfile(path string, stderr io.Writer) (stop func(), code int) {
	if path == "" {
		return func() {}, 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return nil, 1
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "memlife: starting CPU profile: %v\n", err)
		return nil, 1
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "memlife: closing CPU profile: %v\n", err)
		}
	}, 0
}

// dispatch routes the parsed invocation to its mode.
func dispatch(ctx context.Context, c cliConfig, fs *flag.FlagSet, stdout, stderr io.Writer) int {
	campaignMode := c.seeds > 1 || c.jsonOut != "" || c.resume || c.checkpoint != "" || c.stream
	specMode := c.scenario != "" || c.dumpSpec
	switch {
	case specMode:
		if c.all || c.runIDs != "" || campaignMode {
			fmt.Fprintln(stderr, "memlife: -scenario/-dump-spec run one spec and exclude -run/-all and campaign flags")
			return 2
		}
		return runScenario(ctx, c, stdout, stderr)
	case c.list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
		}
		return 0
	case campaignMode:
		if !c.all && c.runIDs == "" {
			fmt.Fprintln(stderr, "memlife: campaign mode (-seeds/-json/-resume/-checkpoint) needs -run or -all")
			return 2
		}
		return runCampaign(ctx, c, stdout, stderr)
	case c.all || c.runIDs != "":
		ids, code := selectIDs(c, stderr)
		if code != 0 {
			return code
		}
		if c.outDir != "" {
			if err := os.MkdirAll(c.outDir, 0o755); err != nil {
				fmt.Fprintf(stderr, "memlife: creating -out dir: %v\n", err)
				return 1
			}
		}
		workers := c.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(ids) {
			workers = len(ids)
		}
		return runParallel(ctx, c, ids, workers, stdout, stderr)
	default:
		fs.Usage()
		return 2
	}
}

// runScenario is the unified-spec mode: resolve the scenario spec
// through the three-stage chain (package defaults -> -scenario file ->
// explicit flags), then either print the resolved spec (-dump-spec) or
// execute the lifetime study it describes.
func runScenario(ctx context.Context, c cliConfig, stdout, stderr io.Writer) int {
	s, err := spec.ResolveFile(c.scenario, c.overrides)
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return 1
	}
	if c.dumpSpec {
		b, err := s.Dump()
		if err != nil {
			fmt.Fprintf(stderr, "memlife: %v\n", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	opt := experiments.Options{Ctx: ctx}
	if c.verb {
		opt.Log = stderr
	}
	sp := telemetry.StartSpan("experiment/run")
	err = experiments.RunScenario(stdout, s, opt)
	sp.End(telemetry.Attrs{"id": "scenario", "ok": err == nil})
	if err != nil {
		fmt.Fprintf(stderr, "memlife: scenario failed: %v\n", err)
		return 1
	}
	return 0
}

// selectIDs resolves the experiment selection: -all runs every
// registered experiment.
func selectIDs(c cliConfig, stderr io.Writer) ([]string, int) {
	var ids []string
	if c.all {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		return ids, 0
	}
	for _, id := range strings.Split(c.runIDs, ",") {
		id = strings.TrimSpace(id)
		if _, ok := experiments.ByID(id); !ok {
			fmt.Fprintf(stderr, "memlife: unknown experiment %q (try -list)\n", id)
			return nil, 1
		}
		ids = append(ids, id)
	}
	return ids, 0
}

// outFile opens <outDir>/<id>.txt when -out is set (nil otherwise).
func outFile(c cliConfig, id string, stderr io.Writer) (*os.File, int) {
	if c.outDir == "" {
		return nil, 0
	}
	f, err := os.Create(filepath.Join(c.outDir, id+".txt"))
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return nil, 1
	}
	return f, 0
}

// runParallel fans the selected experiments over a bounded worker
// pool (one worker runs them one at a time). Each experiment renders
// into its own buffer; the drain loop prints completed buffers in
// selection order, so stdout is the same whatever the worker count, and
// -out receives only finished output. Progress logs (-v) are
// multiplexed onto stderr line-by-line with experiment prefixes.
func runParallel(ctx context.Context, c cliConfig, ids []string, workers int, stdout, stderr io.Writer) int {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	logMux := campaign.NewSyncWriter(stderr)
	type job struct {
		e       experiments.Experiment
		buf     bytes.Buffer
		err     error
		elapsed time.Duration
		done    chan struct{}
	}
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		e, _ := experiments.ByID(id)
		jobs[i] = &job{e: e, done: make(chan struct{})}
	}

	sem := make(chan struct{}, workers)
	for _, j := range jobs {
		go func(j *job) {
			defer close(j.done)
			sem <- struct{}{}
			defer func() { <-sem }()
			if runCtx.Err() != nil {
				j.err = runCtx.Err()
				return
			}
			opt := experiments.Options{Fast: c.fast, Seed: c.seed, Ctx: runCtx}
			var view io.WriteCloser
			if c.verb {
				view = logMux.Shard(j.e.ID)
				opt.Log = view
			}
			start := time.Now()
			sp := telemetry.StartSpan("experiment/run")
			j.err = j.e.Run(&j.buf, opt)
			sp.End(telemetry.Attrs{"id": j.e.ID, "ok": j.err == nil})
			j.elapsed = time.Since(start)
			if view != nil {
				view.Close()
			}
			if j.err != nil {
				cancel() // first failure stops the rest
			}
		}(j)
	}

	exit := 0
	for _, j := range jobs {
		<-j.done
		if j.err != nil {
			if exit == 0 {
				fmt.Fprintf(stderr, "memlife: %s failed: %v\n", j.e.ID, j.err)
				exit = 1
			}
			continue
		}
		f, code := outFile(c, j.e.ID, stderr)
		if code != 0 {
			return code
		}
		if f != nil {
			f.Write(j.buf.Bytes())
			f.Close()
		}
		fmt.Fprintf(stdout, "=== %s: %s ===\n", j.e.ID, j.e.Title)
		stdout.Write(j.buf.Bytes())
		fmt.Fprintf(stdout, "=== %s done in %s ===\n\n", j.e.ID, j.elapsed.Round(time.Millisecond))
	}
	return exit
}

// runCampaign executes the Monte Carlo campaign mode: the selected
// experiments sharded over -seeds seeds, journaled to a checkpoint,
// aggregated with confidence intervals, and (optionally) written as
// canonical JSON whose bytes are independent of -workers.
func runCampaign(ctx context.Context, c cliConfig, stdout, stderr io.Writer) int {
	ids, code := selectIDs(c, stderr)
	if code != 0 {
		return code
	}
	hash, err := experiments.ConfigFingerprint(c.fast)
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return 1
	}
	cspec := campaign.Spec{
		Experiments: ids,
		Seeds:       c.seeds,
		BaseSeed:    c.seed,
		Fast:        c.fast,
		ConfigHash:  hash,
	}
	ckpt := c.checkpoint
	if ckpt == "" && c.jsonOut != "" {
		ckpt = c.jsonOut + ".ckpt.jsonl"
	}
	if c.resume && ckpt == "" {
		fmt.Fprintln(stderr, "memlife: -resume needs -checkpoint or -json to locate the journal")
		return 2
	}
	cfg := campaign.Config{
		Workers:        c.workers,
		Resolve:        experiments.CampaignResolver(),
		CheckpointPath: ckpt,
		Resume:         c.resume,
		Stream:         c.stream,
	}
	if c.verb {
		cfg.Reporter = campaign.NewLogReporter(stderr)
		cfg.Log = stderr
	}
	res, err := campaign.Run(ctx, cspec, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return 1
	}
	if c.jsonOut != "" {
		if err := writeFileAtomic(c.jsonOut, res.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "memlife: writing %s: %v\n", c.jsonOut, err)
			return 1
		}
	}
	res.RenderText(stdout)
	return 0
}
