// Command hidsbench is the end-to-end and per-layer benchmark of the
// batch plane and the detection loop; see bench/README.md.
//
//	go -C bench run ./cmd/hidsbench -seed 1
//	go -C bench run ./cmd/hidsbench -seed 1 -trace 1 -spans spans.jsonl
//	go -C bench run ./cmd/hidsbench -compare parent.jsonl change.jsonl
package main

import (
	"os"

	"repro/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
