package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map evaluates fn(0), …, fn(n-1) across runtime.GOMAXPROCS(0) goroutines
// and returns the results in index order, so output built from them is
// byte-identical at every GOMAXPROCS. fn must therefore be safe to call
// concurrently (the experiment sweeps qualify: every point builds its own
// simulated World and only reads the shared input matrices).
//
// If any call fails, Map returns the error of the lowest failing index —
// again independent of scheduling. With one worker the points run strictly
// in order and evaluation stops at the first error.
func Map[T any](n int, fn func(int) (T, error)) ([]T, error) {
	return MapContext(context.Background(), n, fn)
}

// MapContext is Map honoring cancellation: workers stop picking up new
// indexes once ctx is done, already-running fn calls finish, and the ctx
// error is returned (taking precedence over any fn error, since the
// un-evaluated indexes make the sweep incomplete either way). A failing fn
// call likewise stops further claims — in-flight points finish, points not
// yet claimed are never evaluated — without changing which error is
// returned. Each worker calls ctx.Err before every claim, and only then
// looks for a recorded failure. fn itself is not passed the context; sweep
// points are short relative to a sweep, so between-point cancellation is
// what long runs need.
func MapContext[T any](ctx context.Context, n int, fn func(int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]T, n)
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	// failedAt is the lowest index whose fn call has failed so far (n =
	// none). Workers stop claiming once any failure is recorded: indexes
	// are claimed monotonically, so everything below the recorded failure
	// is already claimed and will finish, which keeps the
	// lowest-failing-index contract exact while sparing the (possibly
	// expensive) evaluation of every point above it.
	var failedAt atomic.Int64
	failedAt.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if failedAt.Load() < int64(n) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
				if errs[i] != nil {
					for {
						cur := failedAt.Load()
						if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f := failedAt.Load(); f < int64(n) {
		return nil, errs[f]
	}
	return out, nil
}
