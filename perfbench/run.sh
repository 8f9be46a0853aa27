#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; the arguments
# pass through (--workload NAME --seed N --seconds S --trace 0|1). Run it
# from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files (and GOPATH) all go under $CARGO_TARGET_DIR (default
# .bench_build). XDG_CONFIG_HOME points there too, so the go command
# neither reads the user's go env file nor writes telemetry counters
# outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
(cd perfbench && GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out/work" "$@"
