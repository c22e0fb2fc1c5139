package buildctl_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// testPop is the convergence suite's shared population: small enough
// that a part builds in milliseconds, large enough to cut into ranges
// worth hedging and re-cutting.
func testPop(t *testing.T, users int) (*trace.Population, snapshot.Key) {
	t.Helper()
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 1, Seed: 7, BinWidth: 6 * time.Hour})
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop, key
}

func genFor(pop *trace.Population) func(u int, rows [][features.NumFeatures]float64) {
	return func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}
}

// wantBytes builds the ground truth every faulty run must reproduce:
// a clean one-range local build's snapshot and manifest bytes.
func wantBytes(t *testing.T, pop *trace.Population, key snapshot.Key) (snap, man []byte) {
	t.Helper()
	dir := t.TempDir()
	ws, err := analysis.MaterializeSharded(context.Background(), dir, key, 0, genFor(pop))
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err = os.ReadFile(key.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	man, err = os.ReadFile(key.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return snap, man
}

// assertSealedIdentical is the convergence pin: the coordinator's
// merged snapshot AND manifest must be byte-identical to the clean
// single-process build, whatever faults the run survived.
func assertSealedIdentical(t *testing.T, dir string, key snapshot.Key, want, wantMan []byte) {
	t.Helper()
	got, err := os.ReadFile(key.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("coordinated snapshot bytes differ from single-process Save")
	}
	gotMan, err := os.ReadFile(key.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMan, wantMan) {
		t.Fatal("coordinated manifest bytes differ from single-process Save")
	}
}

func TestCoordinatorClean(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	opts := buildctl.Options{
		Dir: dir, Key: key,
		Worker:   &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
		Parallel: 4, Weights: pop.CostWeights(),
	}
	st, err := buildctl.Build(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm || st.MergedParts < 2 || st.SealedParts != st.MergedParts || st.Failures != 0 {
		t.Fatalf("clean build stats off: %+v", st)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)

	// Second run over the sealed store is a warm no-op.
	st, err = buildctl.Build(context.Background(), opts)
	if err != nil || !st.Warm || st.Attempts != 0 {
		t.Fatalf("warm rerun: err=%v stats=%+v", err, st)
	}
}

// TestCoordinatorFaultMatrix is the ISSUE's convergence suite: under
// every seeded fault plan the build must complete and seal bytes
// identical to the clean single-process Save.
func TestCoordinatorFaultMatrix(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	plans := map[string]buildctl.FaultPlan{
		"crash30":   {Seed: 1, Crash: 0.3, Limit: 2},
		"slow-all":  {Seed: 2, Slow: 1.0, SlowDelay: 2 * time.Millisecond},
		"corrupt30": {Seed: 3, Corrupt: 0.3, Limit: 2},
		"chaos": {
			Seed: 4, Crash: 0.2, Hang: 0.15, Slow: 0.2, Corrupt: 0.2,
			SlowDelay: 2 * time.Millisecond, Limit: 2,
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := buildctl.Build(context.Background(), buildctl.Options{
				Dir: dir, Key: key,
				Worker: &buildctl.FaultyWorker{
					Inner: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
					Plan:  plan, Dir: dir, Key: key,
				},
				Parallel: 4, Weights: pop.CostWeights(),
				MaxAttempts: 6, Backoff: 2 * time.Millisecond,
				AttemptTimeout: 10 * time.Second, HedgeAfter: 100 * time.Millisecond,
				Seed: plan.Seed,
			})
			if err != nil {
				t.Fatalf("build under %s plan: %v (stats %+v)", name, err, st)
			}
			assertSealedIdentical(t, dir, key, want, wantMan)
		})
	}
}

// TestCoordinatorResume pins the resume scan: verified parts from a
// previous run are adopted without rebuilding, a corrupt one is
// quarantined to *.bad and its range rebuilt, and the sealed result
// is still byte-identical.
func TestCoordinatorResume(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	for _, r := range [][2]int{{0, 12}, {12, 24}} {
		if err := snapshot.BuildPart(context.Background(), dir, key, r[0], r[1], 0, genFor(pop)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a payload byte in the second part: header and table still
	// read fine, only the full verification pass can reject it.
	corrupt := key.PartPath(dir, 12, 24)
	f, err := os.OpenFile(corrupt, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker:   &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
		Parallel: 3, Ranges: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedParts != 1 || st.ResumedUsers != 12 {
		t.Fatalf("resume adopted %d parts / %d users, want 1 / 12 (stats %+v)", st.ResumedParts, st.ResumedUsers, st)
	}
	if st.QuarantinedParts != 1 {
		t.Fatalf("quarantined %d parts, want 1 (stats %+v)", st.QuarantinedParts, st)
	}
	if _, err := os.Stat(corrupt + snapshot.QuarantineSuffix); err != nil {
		t.Fatalf("quarantine corpse missing: %v", err)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
}

// TestCoordinatorResumeMidBuild halts a faulty build after two sealed
// parts (ErrHalted), then resumes it to completion — the ISSUE's
// resumed-build-over-partial-directory case, faults included.
func TestCoordinatorResumeMidBuild(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	opts := buildctl.Options{
		Dir: dir, Key: key,
		Worker: &buildctl.FaultyWorker{
			Inner: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
			Plan:  buildctl.FaultPlan{Seed: 11, Crash: 0.3, Corrupt: 0.2, Limit: 2},
			Dir:   dir, Key: key,
		},
		Parallel: 2, Ranges: 6,
		MaxAttempts: 6, Backoff: 2 * time.Millisecond,
		HaltAfter: 2,
	}
	st, err := buildctl.Build(context.Background(), opts)
	if !errors.Is(err, buildctl.ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if st.SealedParts < 2 {
		t.Fatalf("halted after %d sealed parts, want >= 2", st.SealedParts)
	}
	if _, err := os.Stat(key.Path(dir)); err == nil {
		t.Fatal("halted build sealed the snapshot")
	}

	opts.HaltAfter = 0
	st, err = buildctl.Build(context.Background(), opts)
	if err != nil {
		t.Fatalf("resumed build: %v (stats %+v)", err, st)
	}
	if st.ResumedParts < 2 {
		t.Fatalf("resumed %d parts, want >= 2 (stats %+v)", st.ResumedParts, st)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
}

// TestCoordinatorHedgesHungWorker is the ISSUE's in-test hedging
// assertion: with one worker hung on its first attempt and a 30s
// attempt deadline, the build must still complete promptly — the
// straggler detector dispatches a hedged duplicate instead of waiting
// the deadline out.
func TestCoordinatorHedgesHungWorker(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	const deadline = 30 * time.Second
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker: &buildctl.FaultyWorker{
			Inner: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
			Plan: buildctl.FaultPlan{Script: func(t buildctl.Task) buildctl.Fault {
				if t.Lo == 0 && t.Attempt == 0 {
					return buildctl.FaultHang
				}
				return buildctl.FaultNone
			}},
			Dir: dir, Key: key,
		},
		Parallel: 4, AttemptTimeout: deadline,
		HedgeAfter: 50 * time.Millisecond, HedgeFactor: 3,
	})
	if err != nil {
		t.Fatalf("build with hung worker: %v (stats %+v)", err, st)
	}
	if st.Hedges < 1 {
		t.Fatalf("no hedge dispatched (stats %+v)", st)
	}
	if st.Elapsed >= deadline/3 {
		t.Fatalf("build took %v — it waited out the hang instead of hedging (deadline %v)", st.Elapsed, deadline)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
}

// TestCoordinatorRecutsPoisonedRange poisons every range wider than 9
// users; the coordinator must converge by splitting the failing
// ranges until the pieces fit under the poison width.
func TestCoordinatorRecutsPoisonedRange(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker: &buildctl.FaultyWorker{
			Inner: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
			Plan: buildctl.FaultPlan{Script: func(t buildctl.Task) buildctl.Fault {
				if t.Hi-t.Lo > 9 {
					return buildctl.FaultCrash
				}
				return buildctl.FaultNone
			}},
			Dir: dir, Key: key,
		},
		Parallel: 2, Ranges: 2, // two 18-wide ranges: both poisoned
		MaxAttempts: 6, RecutAfter: 2, Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("build with poisoned ranges: %v (stats %+v)", err, st)
	}
	if st.Recuts < 2 {
		t.Fatalf("recuts = %d, want >= 2 (stats %+v)", st.Recuts, st)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
}

// TestCoordinatorHedgedDuplicateRace forces every range's first
// attempt to straggle so its hedge races it to the seal. Duplicate
// seals are byte-identical and first-valid-wins, so the result must
// still match the clean build exactly.
func TestCoordinatorHedgedDuplicateRace(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker: &buildctl.FaultyWorker{
			Inner: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)},
			Plan: buildctl.FaultPlan{Script: func(t buildctl.Task) buildctl.Fault {
				if t.Attempt == 0 {
					return buildctl.FaultSlow
				}
				return buildctl.FaultNone
			}, SlowDelay: 80 * time.Millisecond},
			Dir: dir, Key: key,
		},
		Parallel: 8, Ranges: 4,
		HedgeAfter: 20 * time.Millisecond, HedgeFactor: 3,
	})
	if err != nil {
		t.Fatalf("build with racing hedges: %v (stats %+v)", err, st)
	}
	if st.Hedges < 1 {
		t.Fatalf("no hedges dispatched (stats %+v)", st)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
}

// TestCoordinatorFatalAborts pins the retryable/fatal split: a Fatal
// worker error aborts the build instead of burning attempts.
func TestCoordinatorFatalAborts(t *testing.T) {
	_, key := testPop(t, 12)
	dir := t.TempDir()
	boom := errors.New("bad worker config")
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker: buildctl.WorkerFunc(func(ctx context.Context, t buildctl.Task) error {
			return buildctl.Fatal(boom)
		}),
		Parallel: 2, Ranges: 2,
	})
	if err == nil || !buildctl.IsFatal(err) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want fatal wrapping the worker error", err)
	}
	if st.Attempts > 4 {
		t.Fatalf("fatal error burned %d attempts (stats %+v)", st.Attempts, st)
	}
}

// TestCoordinatorRetriesExhausted pins the abort path: a range that
// keeps failing past MaxAttempts fails the build with the last error,
// and the error names the range.
func TestCoordinatorRetriesExhausted(t *testing.T) {
	_, key := testPop(t, 8)
	dir := t.TempDir()
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker: buildctl.WorkerFunc(func(ctx context.Context, t buildctl.Task) error {
			return errors.New("always down")
		}),
		Parallel: 1, Ranges: 1,
		MaxAttempts: 3, RecutAfter: 10, // re-cutting disabled
		Backoff: time.Millisecond,
	})
	if err == nil || buildctl.IsFatal(err) {
		t.Fatalf("err = %v, want non-fatal exhaustion error", err)
	}
	if st.Attempts != 3 || st.Failures != 3 {
		t.Fatalf("attempts=%d failures=%d, want 3/3 (stats %+v)", st.Attempts, st.Failures, st)
	}
}
