package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func waitStatus(t *testing.T, r *Runner, id string) JobView {
	t.Helper()
	done, ok := r.Wait(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	v, _ := r.Get(id)
	return v
}

func TestRunnerLifecycle(t *testing.T) {
	r := NewRunner(Config{Workers: 2, QueueDepth: 8})
	defer r.Shutdown(context.Background())
	id, err := r.Submit(func(context.Context) (any, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	v := waitStatus(t, r, id)
	if v.Status != JobDone || v.Result.(int) != 7 {
		t.Fatalf("job = %+v", v)
	}

	boom := errors.New("boom")
	id, _ = r.Submit(func(context.Context) (any, error) { return nil, boom })
	if v := waitStatus(t, r, id); v.Status != JobFailed || !errors.Is(v.Err, boom) {
		t.Fatalf("failed job = %+v", v)
	}
}

func TestRunnerCancelRunning(t *testing.T) {
	r := NewRunner(Config{Workers: 1, QueueDepth: 8})
	defer r.Shutdown(context.Background())
	started := make(chan struct{})
	id, err := r.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // honor cancellation, as JobFuncs must
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !r.Cancel(id) {
		t.Fatal("Cancel returned false for a known job")
	}
	if v := waitStatus(t, r, id); v.Status != JobCancelled {
		t.Fatalf("cancelled job = %+v", v)
	}
}

func TestRunnerCancelQueued(t *testing.T) {
	r := NewRunner(Config{Workers: 1, QueueDepth: 8})
	defer r.Shutdown(context.Background())
	release := make(chan struct{})
	blocker, _ := r.Submit(func(context.Context) (any, error) { <-release; return nil, nil })
	queued, _ := r.Submit(func(context.Context) (any, error) { return "ran", nil })
	if !r.Cancel(queued) {
		t.Fatal("Cancel returned false")
	}
	if v, _ := r.Get(queued); v.Status != JobCancelled {
		t.Fatalf("queued job after cancel = %+v", v)
	}
	close(release)
	if v := waitStatus(t, r, blocker); v.Status != JobDone {
		t.Fatalf("blocker = %+v", v)
	}
	// The cancelled job must never run even though the worker is free now.
	if v, _ := r.Get(queued); v.Status != JobCancelled || v.Result != nil {
		t.Fatalf("cancelled job ran: %+v", v)
	}
}

func TestRunnerTimeout(t *testing.T) {
	r := NewRunner(Config{Workers: 1, QueueDepth: 8, JobTimeout: 20 * time.Millisecond})
	defer r.Shutdown(context.Background())
	id, _ := r.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if v := waitStatus(t, r, id); v.Status != JobCancelled || !errors.Is(v.Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job = %+v", v)
	}
}

func TestRunnerQueueFull(t *testing.T) {
	r := NewRunner(Config{Workers: 1, QueueDepth: 1})
	defer r.Shutdown(context.Background())
	release := make(chan struct{})
	defer close(release)
	block := func(context.Context) (any, error) { <-release; return nil, nil }
	if _, err := r.Submit(block); err != nil { // taken by the worker
		t.Fatal(err)
	}
	// Give the worker a moment to drain the queue slot, then fill it.
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := r.Submit(block); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Submit(block); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("Submit on full queue = %v, want ErrJobQueueFull", err)
	}
}

// TestRunnerShutdownDrains: jobs in flight at shutdown complete when they
// finish within the drain budget.
func TestRunnerShutdownDrains(t *testing.T) {
	r := NewRunner(Config{Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	id, _ := r.Submit(func(context.Context) (any, error) { <-release; return "drained", nil })
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	v, _ := r.Get(id)
	if v.Status != JobDone || v.Result.(string) != "drained" {
		t.Fatalf("in-flight job after drain = %+v", v)
	}
	if _, err := r.Submit(func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrRunnerClosed) {
		t.Fatalf("Submit after shutdown = %v, want ErrRunnerClosed", err)
	}
}

// TestRunnerShutdownCancels: a job outliving the drain budget has its
// context cancelled and ends JobCancelled.
func TestRunnerShutdownCancels(t *testing.T) {
	r := NewRunner(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{})
	id, _ := r.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	v, _ := r.Get(id)
	if v.Status != JobCancelled {
		t.Fatalf("job after forced shutdown = %+v", v)
	}
}

// TestRunnerConcurrent floods the runner from many goroutines; with -race
// this is the locking correctness test.
func TestRunnerConcurrent(t *testing.T) {
	r := NewRunner(Config{Workers: 4, QueueDepth: 256})
	defer r.Shutdown(context.Background())
	var wg sync.WaitGroup
	ids := make([][]string, 8)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id, err := r.Submit(func(context.Context) (any, error) { return g, nil })
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids[g] = append(ids[g], id)
			}
		}(g)
	}
	wg.Wait()
	for g, list := range ids {
		for _, id := range list {
			if v := waitStatus(t, r, id); v.Status != JobDone || v.Result.(int) != g {
				t.Fatalf("job %s = %+v, want done/%d", id, v, g)
			}
		}
	}
}

// submitAndWait runs a trivial job to completion and returns its id.
func submitAndWait(t *testing.T, r *Runner, v int) string {
	t.Helper()
	id, err := r.Submit(func(context.Context) (any, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, r, id)
	return id
}

// TestRunnerRetentionTTL is the regression test for the job-retention bug:
// finished jobs used to stay in the runner's map forever. With a TTL, a
// finished job is queryable within the window and evicted after it.
func TestRunnerRetentionTTL(t *testing.T) {
	r := NewRunner(Config{Workers: 1, JobRetention: 40 * time.Millisecond})
	defer r.Shutdown(context.Background())
	id := submitAndWait(t, r, 1)
	if _, ok := r.Get(id); !ok {
		t.Fatal("finished job gone before its TTL")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := r.Get(id); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job still queryable long after its TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := r.Len(); n != 0 {
		t.Errorf("Len() = %d after eviction", n)
	}
	if n := r.Evicted(); n != 1 {
		t.Errorf("Evicted() = %d, want 1", n)
	}
}

// TestRunnerWaitAppliesRetention is the regression test for Wait bypassing
// the retention policy: it used to return a live done channel for ids that
// Get, Len, Counts, and List (and therefore the whole HTTP API) already
// reported as evicted. Wait must apply eviction first and agree with Get.
func TestRunnerWaitAppliesRetention(t *testing.T) {
	// An hour-long TTL keeps the janitor (which ticks at retain/4, capped
	// at 30s) out of the test: backdating the finish time makes lazy
	// eviction inside the accessor under test the only possible path.
	r := NewRunner(Config{Workers: 1, JobRetention: time.Hour})
	defer r.Shutdown(context.Background())
	id := submitAndWait(t, r, 1)
	if _, ok := r.Wait(id); !ok {
		t.Fatal("Wait lost a finished job before its TTL")
	}
	r.mu.Lock()
	r.jobs[id].finished = time.Now().Add(-2 * time.Hour)
	r.mu.Unlock()
	// Wait runs first, so a lazily-evicting Get cannot be what removed
	// the job.
	done, ok := r.Wait(id)
	if ok {
		t.Fatalf("Wait returned a done channel (%v) for an expired job", done)
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("Get disagrees with Wait about the evicted job")
	}
	if n := r.Evicted(); n != 1 {
		t.Errorf("Evicted() = %d, want 1", n)
	}
}

// TestRunnerRetentionCap: with age-based eviction disabled, the cap bounds
// the retained set and evicts oldest-first.
func TestRunnerRetentionCap(t *testing.T) {
	r := NewRunner(Config{Workers: 1, JobRetention: -1, MaxJobsRetained: 3})
	defer r.Shutdown(context.Background())
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = submitAndWait(t, r, i)
	}
	if n := r.Len(); n != 3 {
		t.Fatalf("Len() = %d, want 3", n)
	}
	for _, id := range ids[:2] {
		if _, ok := r.Get(id); ok {
			t.Errorf("oldest job %s not evicted", id)
		}
	}
	for i, id := range ids[2:] {
		v, ok := r.Get(id)
		if !ok || v.Result.(int) != i+2 {
			t.Errorf("recent job %s = %+v, want result %d", id, v, i+2)
		}
	}
	if n := r.Evicted(); n != 2 {
		t.Errorf("Evicted() = %d, want 2", n)
	}
}

// TestRunnerJanitorEvicts: expired jobs are evicted by the background
// janitor even when nothing calls Get/Len/Submit to trigger the lazy path.
// Evicted() takes the lock but does not itself evict.
func TestRunnerJanitorEvicts(t *testing.T) {
	r := NewRunner(Config{Workers: 1, JobRetention: 30 * time.Millisecond})
	defer r.Shutdown(context.Background())
	submitAndWait(t, r, 1)
	deadline := time.Now().Add(5 * time.Second)
	for r.Evicted() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the expired job")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunnerList: the listing walks jobs in submission order with a
// sequence-number cursor and an optional state filter.
func TestRunnerList(t *testing.T) {
	r := NewRunner(Config{Workers: 1, JobRetention: -1})
	defer r.Shutdown(context.Background())
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = submitAndWait(t, r, i)
	}
	boom := errors.New("boom")
	fid, _ := r.Submit(func(context.Context) (any, error) { return nil, boom })
	waitStatus(t, r, fid)

	items, next := r.List("", 0, 0)
	if len(items) != 6 || next != 0 {
		t.Fatalf("List all = %d items, next %d; want 6, 0", len(items), next)
	}
	for i, it := range items[:5] {
		if it.ID != ids[i] || it.Status != JobDone || it.Created.IsZero() {
			t.Fatalf("items[%d] = %+v, want %s done", i, it, ids[i])
		}
	}

	// Pagination: two pages of 2 carry a cursor, and resuming from it
	// continues without gap or overlap.
	var walked []string
	var after int64
	for {
		page, n := r.List("", after, 2)
		for _, it := range page {
			walked = append(walked, it.ID)
		}
		if n == 0 {
			break
		}
		after = n
	}
	if len(walked) != 6 || walked[0] != ids[0] || walked[5] != fid {
		t.Fatalf("cursor walk = %v", walked)
	}

	failed, _ := r.List(JobFailed, 0, 0)
	if len(failed) != 1 || failed[0].ID != fid {
		t.Fatalf("List(failed) = %+v", failed)
	}
	done, _ := r.List(JobDone, 0, 0)
	if len(done) != 5 {
		t.Fatalf("List(done) = %d items", len(done))
	}
}

// TestRunnerCountsByState: Counts tracks the lifecycle states of the
// remembered jobs.
func TestRunnerCountsByState(t *testing.T) {
	r := NewRunner(Config{Workers: 1, JobRetention: -1})
	defer r.Shutdown(context.Background())
	submitAndWait(t, r, 1)
	boom := errors.New("boom")
	id, _ := r.Submit(func(context.Context) (any, error) { return nil, boom })
	waitStatus(t, r, id)
	c := r.Counts()
	if c[JobDone] != 1 || c[JobFailed] != 1 {
		t.Errorf("Counts() = %v, want one done and one failed", c)
	}
}

// Wait returns the job channel closed at completion, or false for an
// unknown id. Like every other accessor it applies the retention policy
// first, so it can never hand out a done channel for an id that Get and
// the HTTP API already report as evicted.
func (r *Runner) Wait(id string) (<-chan struct{}, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	j, ok := r.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Len returns the number of jobs the runner remembers (all states), after
// applying the retention policy.
func (r *Runner) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	return len(r.jobs)
}
