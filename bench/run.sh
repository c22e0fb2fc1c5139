#!/bin/sh
# Builds hidsbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	sh bench/run.sh --workload paper --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary stores) goes under .bench_build in the current directory;
# the run removes its stores when it exits.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# The Go toolchain keeps its cache, temporary files and telemetry
# inside .bench_build; GOPROXY=off because the module needs no
# downloads (its only requirement is the repository itself).
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C bench build -o "$out/hidsbench" ./cmd/hidsbench
TMPDIR="$out/tmp" exec "$out/hidsbench" "$@"
