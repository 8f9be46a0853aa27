package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"memlife/internal/retry"
	"memlife/internal/server"
	"memlife/internal/telemetry"
)

// runServe is the `memlife serve` subcommand: the lifetime-as-a-service
// daemon (see internal/server). It serves until ctx is cancelled — the
// first SIGINT/SIGTERM — then drains gracefully and exits 0; a second
// signal force-exits with exitForced.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memlife serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		dir          = fs.String("store", "memlife-store", "store directory (job journal, results, checkpoints, lock)")
		jobWorkers   = fs.Int("job-workers", 1, "concurrently running jobs")
		shardWorkers = fs.Int("shard-workers", 0, "campaign workers inside each job (0 = GOMAXPROCS)")
		queueCap     = fs.Int("queue-cap", 64, "max queued+running jobs before submissions get 429")
		retries      = fs.Int("retries", 3, "execution attempts per job before it is marked failed")
		drainGrace   = fs.Duration("drain-grace", 5*time.Second, "how long a drain waits for in-flight jobs before checkpointing them")
		metricsOut   = fs.String("metrics-out", "", "write a telemetry snapshot (canonical JSON) to this file on exit")
		verb         = fs.Bool("v", false, "log job lifecycle events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "memlife serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	// The daemon always runs with a live registry: /metrics/json is part
	// of its API, and queue/cache/drain gauges are its operational
	// surface.
	reg := telemetry.NewRegistry()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)

	cfg := server.Config{
		Dir:          *dir,
		Addr:         *addr,
		JobWorkers:   *jobWorkers,
		ShardWorkers: *shardWorkers,
		QueueCap:     *queueCap,
		Retry:        retry.Policy{MaxAttempts: *retries},
		DrainGrace:   *drainGrace,
	}
	if *verb {
		cfg.Log = stderr
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return 1
	}
	// The bound address goes to stderr (like -debug-addr) so stdout
	// stays machine-readable for wrappers.
	fmt.Fprintf(stderr, "memlife: serving on http://%s (store %s)\n", srv.Addr(), *dir)

	code := 0
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		code = 1
	}
	if *metricsOut != "" {
		snap := reg.Snapshot()
		snap.Version = fmt.Sprintf("memlife %s", buildVersion())
		if err := writeFileAtomic(*metricsOut, snap.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "memlife: writing %s: %v\n", *metricsOut, err)
			code = 1
		}
	}
	return code
}

// runDoctor is the `memlife doctor` subcommand: audit a store
// directory's integrity (see server.Doctor). Exit 0 when healthy, 1
// when corruption was found.
func runDoctor(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memlife doctor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("store", "memlife-store", "store directory to audit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "memlife doctor: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	ok, err := server.Doctor(*dir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "memlife: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
