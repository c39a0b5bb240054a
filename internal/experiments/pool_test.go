package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapOrdering checks that results come back in index order at every
// GOMAXPROCS, including with far more points than workers.
func TestMapOrdering(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8, 64} {
		runtime.GOMAXPROCS(w)
		out, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestMapFirstErrorByIndex checks the error returned is that of the lowest
// failing index, independent of scheduling.
func TestMapFirstErrorByIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 8} {
		runtime.GOMAXPROCS(w)
		_, err := Map(50, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("point %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 3" {
			t.Fatalf("workers=%d: err = %v, want point 3", w, err)
		}
	}
}

// TestMapContextPreCancelled: a context that is already done stops the
// sweep before fn ever runs, in both the sequential and parallel drivers.
func TestMapContextPreCancelled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		runtime.GOMAXPROCS(w)
		var calls atomic.Int64
		out, err := MapContext(ctx, 50, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if out != nil || calls.Load() != 0 {
			t.Fatalf("workers=%d: fn ran %d times on a dead context", w, calls.Load())
		}
	}
}

// TestMapContextMidSweepCancel cancels from inside a point and checks the
// sweep stops early: the context error wins and far fewer than n points run.
func TestMapContextMidSweepCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 8} {
		runtime.GOMAXPROCS(w)
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		_, err := MapContext(ctx, 10_000, func(i int) (int, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		// In-flight points may finish, but the sweep must not go on to
		// evaluate anything like all 10k indexes.
		if n := calls.Load(); n > 1000 {
			t.Fatalf("workers=%d: %d points ran after cancellation", w, n)
		}
	}
}

// TestMapZeroPoints checks the degenerate sweep.
func TestMapZeroPoints(t *testing.T) {
	out, err := Map(0, func(int) (int, error) { return 0, errors.New("never called") })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

// TestParallelSweepByteIdentical runs simulation-backed experiments with
// the sequential driver (GOMAXPROCS 1) and with a wide worker pool
// (GOMAXPROCS 8) and requires the rendered artifacts to match byte for
// byte — the determinism contract Map advertises. Under -race this also
// exercises concurrent Worlds sharing the global buffer arena.
func TestParallelSweepByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(w int) []Artifact {
		runtime.GOMAXPROCS(w)
		tight, err := Tightness(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: Tightness: %v", w, err)
		}
		algs, err := AlgorithmComparison(context.Background(), DefaultCompareN, DefaultCompareP)
		if err != nil {
			t.Fatalf("workers=%d: AlgorithmComparison: %v", w, err)
		}
		scale, err := StrongScaling(context.Background(), DefaultRectDims, []int{1, 2, 4, 8, 16})
		if err != nil {
			t.Fatalf("workers=%d: StrongScaling: %v", w, err)
		}
		return []Artifact{tight, algs, scale}
	}
	seq := run(1)
	par := run(8)
	for i := range seq {
		if seq[i].Text != par[i].Text || seq[i].CSV != par[i].CSV {
			t.Errorf("%s: parallel output differs from sequential", seq[i].ID)
		}
	}
}

// failureGate is a context for a MapContext sweep in which every point
// but 0 waits on gate. MapContext documents that its workers call Err
// before each claim, so the first call after point 0 has failed comes from
// point 0's worker, on its way to its next claim and so after it has
// recorded the failure (the other workers are all parked on the gate):
// that call opens the gate.
type failureGate struct {
	context.Context
	failed atomic.Bool
	once   sync.Once
	gate   chan struct{}
}

func (c *failureGate) Err() error {
	if c.failed.Load() {
		c.once.Do(func() { close(c.gate) })
	}
	return nil
}

// TestMapStopsClaimingAfterFailure is the regression test for the
// early-abort bug: a multi-worker sweep used to keep claiming and
// evaluating every remaining index after a point had already failed,
// burning a full sweep's work to produce an error. Every worker claims
// one point; index 0 fails once the others are parked on a gate, and the
// gate opens only after the failure is recorded, so each released worker
// finds the failure at its next claim: exactly one point per worker runs.
func TestMapStopsClaimingAfterFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const workers, n = 8, 10_000
	runtime.GOMAXPROCS(workers)
	ctx := &failureGate{Context: context.Background(), gate: make(chan struct{})}
	var calls atomic.Int64
	parked := make(chan struct{}, n) // room for every point: a send never blocks
	_, err := MapContext(ctx, n, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			for range workers - 1 {
				<-parked
			}
			ctx.failed.Store(true)
			return 0, errors.New("point 0")
		}
		parked <- struct{}{}
		<-ctx.gate
		return i, nil
	})
	if err == nil || err.Error() != "point 0" {
		t.Fatalf("err = %v, want point 0", err)
	}
	if c := calls.Load(); c != workers {
		t.Fatalf("%d of %d points ran after index 0 failed, want %d (one per worker)", c, n, workers)
	}
}
