package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		seen := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEachErr(100, 8, func(i int) error {
		switch i {
		case 90:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want error from lowest failing index", err)
	}
	if err := ForEachErr(10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestForEachRepanicsOnCaller pins that a panic inside fn reaches the
// caller's recover on both the serial and the multi-worker path, with
// its original value, and that the pool stops handing out indices once
// a worker has panicked.
func TestForEachRepanicsOnCaller(t *testing.T) {
	const n = 10_000
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			ForEach(n, workers, func(i int) {
				calls.Add(1)
				if i == 3 {
					panic("boom")
				}
			})
			return nil
		}()
		if got != "boom" {
			t.Fatalf("workers=%d: recovered %v, want the worker's panic value", workers, got)
		}
		if c := calls.Load(); c >= n {
			t.Fatalf("workers=%d: %d calls after the panic, want the pool to stop early", workers, c)
		}
	}
	// The error variant runs through the same pool.
	got := func() (r any) {
		defer func() { r = recover() }()
		ForEachErr(64, 4, func(i int) error {
			if i == 63 {
				panic(errors.New("late"))
			}
			return nil
		})
		return nil
	}()
	if err, ok := got.(error); !ok || err.Error() != "late" {
		t.Fatalf("ForEachErr: recovered %v, want the worker's panic value", got)
	}
}

func TestWorkersClamping(t *testing.T) {
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8,3) = %d", w)
	}
	if w := Workers(0, 1000); w < 1 {
		t.Fatalf("Workers(0,1000) = %d", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Fatalf("Workers(-1,0) = %d", w)
	}
}
