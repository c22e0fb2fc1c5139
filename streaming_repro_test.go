package repro

// End-to-end guard for shard-by-shard evaluation: every experiment
// that routes through the shard iterator must produce bit-identical
// results however the population is cut — in memory, over an unarmed
// mapped snapshot, and over the same snapshot bounded at shard sizes
// bracketing the population (one user, an odd size leaving a ragged
// tail, larger than everyone) — across heavy-tail seeds.

import (
	"fmt"
	"reflect"
	"testing"
)

// runStreamedSet renders every streaming-routed experiment.
func runStreamedSet(t *testing.T, e *Enterprise) []any {
	t.Helper()
	cfg := DefaultExperimentConfig()
	f1, err := Fig1(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f3a, err := Fig3a(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f3b, err := Fig3b(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f4a, err := Fig4a(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f4b, err := Fig4b(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f5a, err := Fig5a(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f5b, err := Fig5b(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []any{f1, f3a, f3b, t3, f4a, f4b, f5a, f5b, t2}
}

func TestExperimentsShardSizeInvariance(t *testing.T) {
	t.Setenv("REPRO_SNAPSHOT_DIR", "")
	t.Setenv("REPRO_STREAM_SHARD", "")
	names := []string{"Fig1", "Fig3a", "Fig3b", "Table3", "Fig4a", "Fig4b", "Fig5a", "Fig5b", "Table2"}
	for _, seed := range []uint64{53, 87} {
		opts := Options{Users: 26, Weeks: 2, Seed: seed}
		mem, err := NewEnterprise(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := runStreamedSet(t, mem)
		opts.SnapshotDir = t.TempDir()
		for _, shard := range []int{0, 1, 7, 128} {
			sopts := opts
			sopts.StreamShard = shard
			ent, err := NewEnterprise(sopts)
			if err != nil {
				t.Fatal(err)
			}
			got := runStreamedSet(t, ent) // shard 0 seeds the store, unarmed
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d shard %d: %s diverges from the in-memory run", seed, shard, names[i])
				}
			}
			if err := ent.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStreamShardEnvArmsStreaming pins the REPRO_STREAM_SHARD
// plumbing: the env-armed enterprise must agree with the unbounded
// run, and a malformed or negative shard size must run unbounded with
// a warning rather than be dropped silently.
func TestStreamShardEnvArmsStreaming(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("REPRO_SNAPSHOT_DIR", dir)
	t.Setenv("REPRO_STREAM_SHARD", "")
	whole, err := NewEnterprise(Options{Users: 11, Weeks: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	whole.Materialize()
	cfg := DefaultExperimentConfig()
	want, err := Fig3a(whole, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		env       string
		opt       int
		wantShard int
		warns     bool
	}{
		{env: "4", wantShard: 4},
		{env: "128k", warns: true},
		{env: "-3", warns: true},
		{opt: -2, warns: true},
		{env: "4", opt: -2, warns: true}, // Options win over the environment
	} {
		name := fmt.Sprintf("env %q opt %d", tc.env, tc.opt)
		t.Setenv("REPRO_STREAM_SHARD", tc.env)
		var warnings []string
		ent, err := NewEnterprise(Options{Users: 11, Weeks: 2, Seed: 5, StreamShard: tc.opt,
			Warnf: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }})
		if err != nil {
			t.Fatal(err)
		}
		if ent.streamShard != tc.wantShard {
			t.Fatalf("%s: armed shard %d, want %d", name, ent.streamShard, tc.wantShard)
		}
		if got := len(warnings) > 0; got != tc.warns {
			t.Fatalf("%s: warnings %q, want any = %v", name, warnings, tc.warns)
		}
		got, err := Fig3a(ent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: run diverges from the unbounded run", name)
		}
		if err := ent.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
