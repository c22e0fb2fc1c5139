package buildctl

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/features"
	"repro/internal/snapshot"
)

// Task is one dispatched build attempt: seal users [Lo, Hi) of the
// coordinator's key as a part file. Attempt counts prior attempts of
// this exact range — hedged duplicates included — so fault injectors
// and remote workers can vary behavior per attempt.
type Task struct {
	Lo, Hi  int
	Attempt int
}

func (t Task) String() string {
	return fmt.Sprintf("[%d, %d) attempt %d", t.Lo, t.Hi, t.Attempt)
}

// Worker executes build attempts. The sealed part file on disk is the
// real output — a nil error only means the worker believes it sealed
// one; the coordinator trusts nothing it has not run through
// snapshot.VerifyPart. Build must honor ctx cancellation (a hedge win
// or an attempt deadline cancels stragglers) and must be safe for
// concurrent calls: the coordinator runs up to Options.Parallel
// attempts at once, and hedged duplicates of one range can overlap.
// Overlapping seals of the same range are safe because every build
// strategy produces byte-identical parts sealed by atomic rename.
type Worker interface {
	Build(ctx context.Context, t Task) error
}

// WorkerFunc adapts a function to the Worker interface.
type WorkerFunc func(ctx context.Context, t Task) error

// Build implements Worker.
func (f WorkerFunc) Build(ctx context.Context, t Task) error { return f(ctx, t) }

// fatalError marks a failure retrying cannot fix; the coordinator
// aborts the build instead of burning attempts on it.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Fatal wraps err so the coordinator treats it as non-retryable: a bad
// key, an invalid range, a request every worker host rejects. nil
// stays nil.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return fatalError{err: err}
}

// IsFatal reports whether err (or anything it wraps) was marked with
// Fatal.
func IsFatal(err error) bool {
	var fe fatalError
	return errors.As(err, &fe)
}

// LocalWorker builds parts in-process via snapshot.BuildPart — the
// Worker every single-binary build uses. ShardUsers bounds the fill
// buffer as in BuildPart (<= 0: snapshot.DefaultShardUsers).
type LocalWorker struct {
	Dir        string
	Key        snapshot.Key
	ShardUsers int
	Generate   func(u int, rows [][features.NumFeatures]float64)
}

// Build implements Worker.
func (w *LocalWorker) Build(ctx context.Context, t Task) error {
	return snapshot.BuildPart(ctx, w.Dir, w.Key, t.Lo, t.Hi, w.ShardUsers, w.Generate)
}
