#!/bin/sh
# bench_json.sh — convert `go test -bench -benchmem` output into the
# BENCH_repro.json format: one record per benchmark with ns/op, B/op
# and allocs/op. An optional second file (the frozen seed baseline,
# scripts/seed_baseline.bench) is emitted as "seed_baseline" so the
# speedup vs. the pre-workspace implementation stays on record. An
# optional third file, the previous BENCH_repro.json, contributes its
# hand-recorded "before_after" section, copied over verbatim, so
# regenerating the file never drops a recorded comparison.
#
# Usage: scripts/bench_json.sh current.txt [seed-baseline.txt [previous-BENCH_repro.json]]
#        scripts/bench_json.sh -check current.txt BENCH_repro.json
#
# Check mode compares a fresh measured run against the committed
# BENCH_repro.json and exits non-zero if any benchmark present in
# both regressed by more than 20% in ns/op or more than 25% in
# allocs/op — the guard that keeps perf PRs from silently undoing
# each other (alloc regressions are how generation-path wins decay).
# Benchmarks only in one side (added or retired) are ignored, and the
# ns/op comparison is skipped (and reported as skipped) for any
# benchmark that ran a single iteration on either side: one iteration
# is one sample, so its timing is noise, and the multi-second
# materialization benches were flaking CI on it. allocs/op is exact
# per iteration and stays checked.
set -eu

if [ "${1:-}" = "-check" ]; then
    cur="${2:?usage: bench_json.sh -check <current-bench-output> <BENCH_repro.json>}"
    baseline="${3:?usage: bench_json.sh -check <current-bench-output> <BENCH_repro.json>}"
    # Extract "name ns_per_op" pairs from the committed JSON. Only the
    # "benchmarks" array is read — the emitter writes one record per
    # line, so line-oriented awk is enough — and the "seed_baseline"
    # array is explicitly skipped.
    awk '
    /"benchmarks": \[/  { inb = 1; next }
    inb && /^  \]/      { inb = 0 }
    inb && /"name"/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        al = "-"
        if ($0 ~ /"allocs_per_op"/) {
            al = $0; sub(/.*"allocs_per_op": /, "", al); sub(/[,}].*/, "", al)
        }
        it = "-"
        if ($0 ~ /"iterations"/) {
            it = $0; sub(/.*"iterations": /, "", it); sub(/[,}].*/, "", it)
        }
        print name, ns, al, it
    }
    ' "$baseline" > /tmp/bench_baseline_pairs.$$
    status=0
    awk -v failfile=/tmp/bench_check_fail.$$ '
    NR == FNR { base[$1] = $2; basealloc[$1] = $3; baseiters[$1] = $4; next }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        iters = $2
        ns = ""; al = ""
        for (i = 3; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i - 1)
            if ($(i) == "allocs/op") al = $(i - 1)
        }
        if (ns == "" || !(name in base)) next
        compared++
        if (iters + 0 == 1 || ((name in baseiters) && baseiters[name] == 1)) {
            # Single-iteration timings are one noisy sample on at
            # least one side: record the skip, keep the allocs guard.
            printf "skip %s: ns/op not compared (single-iteration run: current %s iters, baseline %s)\n", name, iters, baseiters[name]
            skipped++
        } else {
            ratio = ns / base[name]
            if (ratio > 1.20) {
                printf "REGRESSION %s: %.4g ns/op vs baseline %.4g (%.0f%%)\n", name, ns, base[name], (ratio - 1) * 100
                fail = 1
            } else {
                printf "ok %s: %.4g ns/op vs baseline %.4g\n", name, ns, base[name]
            }
        }
        # allocs/op guard: >25% growth (or any allocs appearing on a
        # previously allocation-free benchmark) fails the check.
        if (al != "" && (name in basealloc) && basealloc[name] != "-") {
            ab = basealloc[name] + 0
            if (ab == 0) {
                if (al + 0 > 0) {
                    printf "REGRESSION %s: %s allocs/op vs baseline 0\n", name, al
                    fail = 1
                }
            } else if (al / ab > 1.25) {
                printf "REGRESSION %s: %s allocs/op vs baseline %s (%.0f%%)\n", name, al, ab, (al / ab - 1) * 100
                fail = 1
            }
        }
    }
    END {
        # Zero comparisons means the baseline parse found nothing (a
        # reformatted BENCH_repro.json, or the wrong file) — that is a
        # broken guard, not a pass.
        if (compared == 0) { print "bench-check: no benchmarks matched the baseline — guard is not running"; fail = 1 }
        if (fail) print "fail" > failfile
    }
    ' /tmp/bench_baseline_pairs.$$ "$cur"
    [ -f /tmp/bench_check_fail.$$ ] && { rm -f /tmp/bench_check_fail.$$; status=1; }
    rm -f /tmp/bench_baseline_pairs.$$
    exit $status
fi

in="${1:?usage: bench_json.sh <current-bench-output> [seed-baseline-output [previous-BENCH_repro.json]]}"
base="${2:-}"
prev="${3:-}"

emit_array() {
    awk '
    BEGIN { n = 0 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix (-8 etc.)
        iters = $2
        ns = ""; bytes = ""; allocs = ""
        for (i = 3; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i - 1)
            if ($(i) == "B/op")      bytes = $(i - 1)
            if ($(i) == "allocs/op") allocs = $(i - 1)
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END { print "" }
    ' "$1"
}

meta() {
    awk '
    /^goos:/   { goos = $2 }
    /^goarch:/ { goarch = $2 }
    /^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
    END { printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"\n", goos, goarch, cpu }
    ' "$1"
}

printf '{\n'
printf '  "benchmarks": [\n'
emit_array "$in"
printf '  ],\n'
if [ -n "$base" ]; then
    printf '  "seed_baseline": [\n'
    emit_array "$base"
    printf '  ],\n'
fi
if [ -n "$prev" ] && [ -f "$prev" ]; then
    # The section runs from its key line to the first line closing a
    # top-level array; the closing line always gets its comma, since
    # the metadata follows.
    awk '
    /^  "before_after": \[/ { on = 1 }
    on && /^  \],?$/       { print "  ],"; exit }
    on                      { print }
    ' "$prev"
fi
meta "$in"
printf '}\n'
