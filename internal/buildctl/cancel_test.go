package buildctl_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildctl"
)

// TestHedgeLoserCancelledPromptly is the goroutine-leak regression
// test for first-valid-wins: every range's first attempt hangs on its
// context with a 30s deadline, the hedge seals the part, and the
// losing attempt must observe cancellation immediately — not at its
// own deadline — so the build finishes in hedge time and no attempt
// goroutine outlives the Build call.
func TestHedgeLoserCancelledPromptly(t *testing.T) {
	pop, key := testPop(t, 36)
	dir := t.TempDir()
	var hung, cancelled atomic.Int64
	local := &buildctl.LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)}
	worker := buildctl.WorkerFunc(func(ctx context.Context, tk buildctl.Task) error {
		if tk.Attempt == 0 {
			hung.Add(1)
			<-ctx.Done()
			cancelled.Add(1)
			return ctx.Err()
		}
		return local.Build(ctx, tk)
	})
	base := runtime.NumGoroutine()
	const deadline = 30 * time.Second
	start := time.Now()
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key, Worker: worker,
		Parallel: 4, Ranges: 2,
		AttemptTimeout: deadline,
		HedgeAfter:     30 * time.Millisecond, HedgeFactor: 3,
	})
	if err != nil {
		t.Fatalf("build: %v (stats %+v)", err, st)
	}
	if elapsed := time.Since(start); elapsed >= deadline/3 {
		t.Fatalf("build took %v — hung losers were waited out, not cancelled (deadline %v)", elapsed, deadline)
	}
	if st.Hedges < 2 {
		t.Fatalf("hedges = %d, want one per range (stats %+v)", st.Hedges, st)
	}
	// Build drains in-flight attempts before returning, so by now every
	// hung attempt must have seen ctx.Done.
	if h, c := hung.Load(), cancelled.Load(); h == 0 || c != h {
		t.Fatalf("hung=%d cancelled=%d — losing attempts leaked past Build", h, c)
	}
	// And no attempt goroutine may outlive the call. Allow a short grace
	// for runtime bookkeeping (timer/GC goroutines settling).
	dl := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		}
		if time.Now().After(dl) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
