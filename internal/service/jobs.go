package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// JobStatus is the lifecycle state of an async job.
type JobStatus string

// The job lifecycle: queued → running → one of the three terminal states.
const (
	// JobQueued means the job is accepted and waiting for a worker.
	JobQueued JobStatus = "queued"
	// JobRunning means a worker is executing the job.
	JobRunning JobStatus = "running"
	// JobDone means the job finished and its result is available.
	JobDone JobStatus = "done"
	// JobFailed means the job returned an error.
	JobFailed JobStatus = "failed"
	// JobCancelled means the job's context was cancelled (client request,
	// deadline, or server shutdown) before it produced a result.
	JobCancelled JobStatus = "cancelled"
)

// ErrJobQueueFull is returned by Submit when the bounded queue cannot
// accept another job; clients should retry later (the service maps it to
// 503).
var ErrJobQueueFull = errors.New("job queue full")

// ErrRunnerClosed is returned by Submit after Shutdown has begun.
var ErrRunnerClosed = errors.New("job runner closed")

// Job is one asynchronous unit of work with its own context. Fields are
// guarded by the owning runner's mutex; read them through Snapshot.
type Job struct {
	id       string
	num      int64   // monotone submit sequence; the listing cursor orders by it
	fn       JobFunc // the work; nil once a worker takes it or the job is cancelled
	status   JobStatus
	result   any
	err      error
	cancel   context.CancelFunc
	done     chan struct{} // closed when the job reaches a terminal state
	created  time.Time
	finished time.Time
}

// JobView is an immutable snapshot of a job's state.
type JobView struct {
	// ID is the job identifier, as returned by Submit.
	ID string
	// Status is the lifecycle state at snapshot time.
	Status JobStatus
	// Result holds the job's result when Status is JobDone, else nil.
	Result any
	// Err holds the failure when Status is JobFailed or JobCancelled.
	Err error
}

// JobFunc is the work a job performs. It must honor ctx: return ctx.Err()
// (or an error wrapping it) promptly once the context is done. The ctx
// carries the job's own id, readable with JobIDFrom — how a JobFunc names
// the artifacts it writes without the runner knowing about storage.
type JobFunc func(ctx context.Context) (any, error)

// jobIDKey keys the executing job's id in its context.
type jobIDKey struct{}

// JobIDFrom returns the id of the job whose JobFunc is executing under
// ctx, and whether ctx belongs to a job at all.
func JobIDFrom(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(jobIDKey{}).(string)
	return id, ok
}

// Runner executes jobs on a bounded worker pool with per-job
// cancellation and deadline. It is the service's async half: Submit
// enqueues, workers drain, Shutdown stops intake and drains (or cancels)
// what is in flight. The pool mirrors the experiments.Map machinery — a
// fixed set of goroutines pulling from a shared work source — but persists
// across requests and tracks each unit as an addressable Job. Batch jobs
// fan their points out through experiments.MapContext under the job's own
// context, so one cancellation stops the whole sweep.
type Runner struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	queue    chan *Job
	terminal []*Job // terminal jobs in retirement order (oldest first)
	evicted  int64
	timeout  time.Duration
	retain   time.Duration
	maxKeep  int
	nextID   atomic.Int64
	inFlight atomic.Int64
	closed   bool
	wg       sync.WaitGroup
	stop     chan struct{} // closes the janitor on Shutdown
}

// NewRunner starts a job pool configured by cfg's Workers, QueueDepth,
// JobTimeout, JobRetention and MaxJobsRetained, with their zero values
// filled by Config's defaults. A negative JobTimeout, JobRetention or
// MaxJobsRetained disables the deadline, the age limit or the cap.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	r := &Runner{
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueDepth),
		timeout: cfg.JobTimeout,
		retain:  cfg.JobRetention,
		maxKeep: cfg.MaxJobsRetained,
		stop:    make(chan struct{}),
	}
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	if r.retain > 0 {
		go r.janitor()
	}
	return r
}

// janitor periodically evicts expired terminal jobs so retention holds even
// when the runner goes idle (no Submit/Get/Len to trigger lazy eviction).
func (r *Runner) janitor() {
	interval := r.retain / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.mu.Lock()
			r.evictLocked(now)
			r.mu.Unlock()
		}
	}
}

// retireLocked records a job's arrival in a terminal state: stamps the
// finish time, queues it for eviction in retirement order, and applies the
// cap immediately. Callers hold r.mu and have already set the terminal
// status.
func (r *Runner) retireLocked(j *Job) {
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	r.terminal = append(r.terminal, j)
	r.evictLocked(j.finished)
}

// evictLocked drops terminal jobs that are over the cap or past the
// retention deadline, oldest first. Retirement order is append order under
// r.mu, so the front of the slice is always the eviction candidate.
func (r *Runner) evictLocked(now time.Time) {
	for len(r.terminal) > 0 {
		j := r.terminal[0]
		over := r.maxKeep > 0 && len(r.terminal) > r.maxKeep
		expired := r.retain > 0 && now.Sub(j.finished) >= r.retain
		if !over && !expired {
			return
		}
		r.terminal[0] = nil
		r.terminal = r.terminal[1:]
		delete(r.jobs, j.id)
		r.evicted++
	}
}

// Submit enqueues fn as a new job and returns its id. It fails fast with
// ErrJobQueueFull when the queue is at capacity and ErrRunnerClosed after
// shutdown has begun.
func (r *Runner) Submit(fn JobFunc) (string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return "", ErrRunnerClosed
	}
	r.evictLocked(time.Now())
	num := r.nextID.Add(1)
	id := fmt.Sprintf("j%d", num)
	j := &Job{id: id, num: num, fn: fn, status: JobQueued, done: make(chan struct{}), created: time.Now()}
	select {
	case r.queue <- j:
	default:
		r.mu.Unlock()
		return "", ErrJobQueueFull
	}
	r.jobs[id] = j
	r.mu.Unlock()
	return id, nil
}

// worker drains the queue until it is closed by Shutdown.
func (r *Runner) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.execute(j)
	}
}

// execute runs one job under its own context.
func (r *Runner) execute(j *Job) {
	r.mu.Lock()
	if j.status == JobCancelled { // cancelled while queued
		r.mu.Unlock()
		return
	}
	fn := j.fn
	j.fn = nil
	ctx := context.WithValue(context.Background(), jobIDKey{}, j.id)
	var cancel context.CancelFunc
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	j.status = JobRunning
	r.mu.Unlock()
	r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	defer cancel()

	res, err := fn(ctx)

	r.mu.Lock()
	defer r.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status, j.result = JobDone, res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status, j.err = JobCancelled, err
	default:
		j.status, j.err = JobFailed, err
	}
	close(j.done)
	r.retireLocked(j)
}

// Get returns a snapshot of the job with the given id. An id whose job has
// been evicted by the retention policy reports false, exactly like an id
// that never existed.
func (r *Runner) Get(id string) (JobView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	j, ok := r.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return JobView{ID: j.id, Status: j.status, Result: j.result, Err: j.err}, true
}

// Cancel cancels the job with the given id: a queued job goes straight to
// JobCancelled, a running job has its context cancelled (and reaches
// JobCancelled when its JobFunc returns the context error). It reports
// whether the id was known.
func (r *Runner) Cancel(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return false
	}
	switch j.status {
	case JobQueued:
		j.fn = nil
		j.status = JobCancelled
		j.err = context.Canceled
		close(j.done)
		r.retireLocked(j)
	case JobRunning:
		j.cancel()
	}
	return true
}

// InFlight returns the number of jobs currently executing.
func (r *Runner) InFlight() int64 { return r.inFlight.Load() }

// Counts returns the number of remembered jobs per lifecycle state, after
// applying the retention policy.
func (r *Runner) Counts() map[JobStatus]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	out := make(map[JobStatus]int, 5)
	for _, j := range r.jobs {
		out[j.status]++
	}
	return out
}

// JobInfo is one row of a job listing: identity, lifecycle state, and
// submission time.
type JobInfo struct {
	ID      string
	Num     int64
	Status  JobStatus
	Created time.Time
}

// List returns up to limit jobs in submission order, optionally filtered
// by state ("" matches every state), starting after the given sequence
// number (0 starts from the beginning — pass the Num of the last row seen
// to continue). next is the cursor for the following page, or 0 when this
// page exhausted the listing. limit ≤ 0 selects 100. The retention policy
// is applied first, so evicted jobs never appear.
func (r *Runner) List(state JobStatus, after int64, limit int) (items []JobInfo, next int64) {
	if limit <= 0 {
		limit = 100
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	sel := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		if j.num <= after || (state != "" && j.status != state) {
			continue
		}
		sel = append(sel, j)
	}
	sort.Slice(sel, func(a, b int) bool { return sel[a].num < sel[b].num })
	more := len(sel) > limit
	if more {
		sel = sel[:limit]
	}
	items = make([]JobInfo, len(sel))
	for i, j := range sel {
		items[i] = JobInfo{ID: j.id, Num: j.num, Status: j.status, Created: j.created}
	}
	if more {
		next = sel[len(sel)-1].num
	}
	return items, next
}

// Evicted returns the cumulative number of jobs removed by the retention
// policy (age or cap).
func (r *Runner) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Shutdown stops accepting jobs and drains the pool. In-flight and queued
// jobs are given until ctx is done to finish; after that every remaining
// job's context is cancelled and Shutdown waits for the workers to return.
// The error is ctx.Err() when the deadline forced cancellation, else nil.
func (r *Runner) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.queue)
	close(r.stop)
	r.mu.Unlock()

	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel everything still alive and wait it out.
	r.mu.Lock()
	for _, j := range r.jobs {
		switch j.status {
		case JobQueued:
			j.fn = nil
			j.status = JobCancelled
			j.err = context.Canceled
			close(j.done)
			r.retireLocked(j)
		case JobRunning:
			j.cancel()
		}
	}
	r.mu.Unlock()
	<-done
	return ctx.Err()
}
