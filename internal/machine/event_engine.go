package machine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// eventEngine is the simulator's scheduler: ranks run as cooperatively
// scheduled tasks multiplexed onto a small worker pool.
//
// Go has no stack-capturing continuations, so each task still owns a
// goroutine — but a parked one, blocked on its private handoff channel.
// Only the ≤ W tasks currently stepped by workers are ever runnable, so
// the Go scheduler's run queues stay tiny regardless of P, there are no
// per-rank condition variables, and no broadcast storms: a barrier release
// is one batched run-queue append instead of P condvar wakeups. That is
// what makes P=65536 full simulations interactive and P ≥ 10^6
// communication-counting runs feasible in a few GB (the residual per-rank
// cost is one small task struct, one channel, and one parked goroutine
// stack).
//
// Scheduling is sharded: ranks are pinned to one of W shards by contiguous
// blocks, and each shard has one execution token — at most one of its
// tasks runs at any moment. A task blocked in Recv or Barrier is resumed
// by pushing its id onto its home shard's run queue under that shard's
// lock; pushes happen only from running tasks (senders, barrier releasers)
// or from the failure paths, never for a running task, so a task is
// enqueued at most once per suspension, and therefore resumed by exactly
// one party per suspension.
//
// The token is passed by direct handoff: a task that suspends or finishes
// pops the next runnable id from its home shard itself and resumes that
// task directly — one channel send, one context switch — without bouncing
// through the worker. The worker only seeds a chain when the shard is idle
// (token free) and new work arrives, and parks otherwise, so in steady
// state the whole simulation is one continuous chain of task-to-task
// handoffs per shard and the workers sleep. Run-queue pushes to a shard
// whose token is held do not signal anyone: the chain is obligated to
// drain the queue before releasing the token (the release path pops under
// the same lock), so the wakeup cannot be lost.
//
// Suspension points are exactly the blocking operations of the machine
// model: Recv (no matching message queued) and Barrier (generation not yet
// released). Send never suspends (eager delivery).
//
// Deadlock detection: a worker with no poppable work counts itself parked;
// the last worker to park (parked == W) with no live chain anywhere
// (active == 0) verifies exactly under the detector mutex, all shard
// locks, and the barrier lock: if every token is free, every run queue is
// empty, and no blocked Recv has a matching queued message, the world is
// stuck, and every blocked task is requeued so it can observe the failure
// and abort. A task that was pushed but not yet resumed keeps the verdict
// conservative: it is neither waiting nor finished, so the state sum check
// fails and the verifier stands down.
//
// Quiescence rule: every change that can turn a stood-down verdict into a
// deadlock passes through a parked worker. Queued work was pushed with a
// signal to its idle shard's worker; a held token is released with a
// signal to its own worker; a finished world is stopped with a broadcast.
// Each of those workers re-parks when it runs out of work, and the last
// one to park verifies again. So a verifier that stands down and finds
// nothing to do on its own shard waits on its condvar, still counted as
// parked, instead of re-verifying: the pending wakeup it stood down for
// belongs to another worker, which has not run yet and so still counts as
// parked too — re-verifying until it runs would spin, taking every shard
// lock each time, for as long as the Go scheduler leaves it unscheduled.
//
// Lock ordering: outside verifyStalled, at most one engine lock is held at
// a time (barrier release snapshots its waiters under the barrier lock,
// unlocks, then pushes). verifyStalled alone nests: detMu → every shard
// lock in index order → barrier lock.
type eventEngine struct {
	w    *World
	body func(*Rank)

	// nw is the worker-pool width; shards[i] is drained only by worker i.
	nw     int
	shards []eventShard
	tasks  []eventTask
	errs   []error

	// remaining counts unfinished tasks; the last finisher (panicked or
	// not — there is no per-rank WaitGroup) stops the pool.
	remaining atomic.Int64
	// parked counts workers blocked on their shard condvar; active counts
	// shards whose execution token is held by a task chain. parked == nw
	// with active == 0 suggests global quiescence and triggers exact
	// deadlock verification (the verifier re-checks both under the locks).
	parked atomic.Int32
	active atomic.Int32
	stop   atomic.Bool

	failed  atomic.Bool
	failMsg string
	detMu   sync.Mutex

	// bar is the generation-counted reusable barrier. Waiters are held as
	// task ids and released by one batched requeue — no condition
	// variable, no broadcast.
	bar struct {
		mu      sync.Mutex
		gen     int
		clock   float64
		release float64
		waiters []int32
	}
}

// eventShard is one shard's run queue plus its execution token. head
// indexes the next runnable id; the slice is compacted when drained.
// running is 1 while a task chain holds the token (guarded by mu); the
// worker pops only with the token free, and a suspending or finishing task
// passes the token onward itself.
//
// next and hotq mirror the Go scheduler's runnext + local run queue: a
// receiver woken by a matching send is scheduled in the hot slot, ahead of
// everything, so it runs as soon as the current task parks and consumes
// the message while the payload is still warm in cache; a send that finds
// the slot occupied displaces the previous occupant into hotq, which is
// drained before the cold main queue. Without this two-level order a woken
// receiver waits behind every previously queued task — at P=65536 up to
// tens of thousands of steps — and every payload copy touches cold memory,
// which alone made the scheduler twice as slow as one goroutine per rank.
// Batch wakeups (barrier releases, failure paths) go straight to the main
// queue: they carry no hot data. The trailing padding keeps adjacent
// shards off one cache line.
//
// The shard also holds the message store of the ranks homed on it: one
// map from (destination, source) to that pair's FIFO, under the same lock
// senders and receivers already take to requeue and park. A pair's entry
// is deleted when its queue drains, so the map holds only pairs with
// messages in flight, and a world allocates a handful of maps rather than
// one per rank plus one queue per peer.
type eventShard struct {
	mu      sync.Mutex
	cond    sync.Cond
	runq    []int32
	head    int
	hotq    []int32
	hoth    int
	running int
	next    int32

	queues map[uint64]msgQueue
	// inflight counts the undelivered messages in queues; the deadlock
	// verifier sums it across shards for diagnostics.
	inflight int

	_ [32]byte
}

// queueMsg appends m to its (destination, source) queue. Callers hold mu.
func (sh *eventShard) queueMsg(m *message) {
	k := pairKey(m.dst, m.src)
	q := sh.queues[k]
	if q.tail == nil {
		q.head = m
	} else {
		q.tail.next = m
	}
	q.tail = m
	sh.queues[k] = q
	sh.inflight++
}

// takeMsg removes and returns the oldest message from src to dst with the
// given tag, or nil. Skipping non-matching tags preserves FIFO order among
// same-tag messages, the simulator's matching guarantee. Callers hold mu.
func (sh *eventShard) takeMsg(dst, src, tag int) *message {
	k := pairKey(dst, src)
	q := sh.queues[k]
	var prev *message
	for m := q.head; m != nil; prev, m = m, m.next {
		if m.tag != tag {
			continue
		}
		if prev == nil {
			q.head = m.next
		} else {
			prev.next = m.next
		}
		if q.tail == m {
			q.tail = prev
		}
		if q.head == nil {
			delete(sh.queues, k)
		} else {
			sh.queues[k] = q
		}
		m.next = nil
		sh.inflight--
		return m
	}
	return nil
}

// peekMsg reports whether a message from src to dst with the given tag is
// queued. Callers hold mu.
func (sh *eventShard) peekMsg(dst, src, tag int) bool {
	for m := sh.queues[pairKey(dst, src)].head; m != nil; m = m.next {
		if m.tag == tag {
			return true
		}
	}
	return false
}

// empty reports whether no runnable id is queued (hot slot, hot queue, and
// main queue all clear). Callers hold mu.
func (sh *eventShard) empty() bool {
	return sh.next < 0 && sh.hoth == len(sh.hotq) && sh.head == len(sh.runq)
}

// take removes and returns the next runnable id: hot slot, then displaced
// hot entries, then the main queue. Callers hold mu and have checked the
// shard is non-empty.
func (sh *eventShard) take() int32 {
	if sh.next >= 0 {
		id := sh.next
		sh.next = -1
		return id
	}
	if sh.hoth < len(sh.hotq) {
		id := sh.hotq[sh.hoth]
		sh.hoth++
		if sh.hoth == len(sh.hotq) {
			sh.hotq, sh.hoth = sh.hotq[:0], 0
		}
		return id
	}
	return sh.pop()
}

// pop removes and returns the next runnable id. Callers hold mu and have
// checked the queue is non-empty. The consumed prefix is compacted away
// once it dominates the slice — a steady chain pops and pushes in balance
// and may never fully drain the queue, so without amortized compaction the
// slice would grow with every push for the whole run.
func (sh *eventShard) pop() int32 {
	id := sh.runq[sh.head]
	sh.head++
	if sh.head == len(sh.runq) {
		sh.runq, sh.head = sh.runq[:0], 0
	} else if sh.head >= 1024 && sh.head*2 >= len(sh.runq) {
		n := copy(sh.runq, sh.runq[sh.head:])
		sh.runq, sh.head = sh.runq[:n], 0
	}
	return id
}

// eventTask is the suspension state of one rank: its handoff channel and
// the description of the Recv it is parked in, if any.
// All fields except ch are guarded by the home shard's lock; ch is touched
// only by the home worker and the task itself.
type eventTask struct {
	id      int32
	started bool
	// waiting/wantSrc/wantTag describe a parked Recv: senders use them to
	// decide whether to requeue the task, and the deadlock verifier to
	// recognize a pending wakeup (a queued matching message).
	waiting bool
	wantSrc int32
	wantTag int32
	ch      chan struct{}
}

// newEventEngine builds the scheduler for w with the given worker count
// (values below one select GOMAXPROCS, capped at P).
func newEventEngine(w *World, workers int) *eventEngine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > w.p {
		workers = w.p
	}
	e := &eventEngine{
		w:      w,
		nw:     workers,
		shards: make([]eventShard, workers),
		tasks:  make([]eventTask, w.p),
		errs:   make([]error, w.p),
	}
	for i := range e.shards {
		e.shards[i].cond.L = &e.shards[i].mu
		e.shards[i].next = -1
		e.shards[i].queues = make(map[uint64]msgQueue)
	}
	for i := range e.tasks {
		e.tasks[i].id = int32(i)
	}
	return e
}

// shardOf maps a rank to its home shard: contiguous blocks of p/nw ranks.
func (e *eventEngine) shardOf(id int) int {
	return int(int64(id) * int64(e.nw) / int64(e.w.p))
}

// shardRange returns the half-open rank interval [lo, hi) pinned to shard
// si (the preimage of shardOf).
func (e *eventEngine) shardRange(si int) (lo, hi int) {
	lo = (si*e.w.p + e.nw - 1) / e.nw
	hi = ((si+1)*e.w.p + e.nw - 1) / e.nw
	return lo, hi
}

// run seeds every task runnable on its home shard and drives the pool to
// completion.
func (e *eventEngine) run(body func(*Rank)) error {
	e.body = body
	e.remaining.Store(int64(e.w.p))
	for si := range e.shards {
		lo, hi := e.shardRange(si)
		runq := make([]int32, 0, hi-lo)
		for id := lo; id < hi; id++ {
			runq = append(runq, int32(id))
		}
		e.shards[si].runq = runq
	}
	var wg sync.WaitGroup
	for si := 0; si < e.nw; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			e.worker(si)
		}(si)
	}
	wg.Wait()
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// worker seeds task chains on shard si until the world stops: with the
// shard's token free and a runnable task queued, take the token and resume
// the task; the chain then sustains itself through direct handoffs, and
// the worker parks until the token comes back or the pool stops.
func (e *eventEngine) worker(si int) {
	sh := &e.shards[si]
	sh.mu.Lock()
	for {
		for sh.running != 0 || sh.empty() {
			if e.stop.Load() {
				sh.mu.Unlock()
				return
			}
			if e.parked.Add(1) == int32(e.nw) && e.active.Load() == 0 {
				// Last worker to park with every token free: the pool
				// looks quiescent. Verify exactly whether the world is
				// stuck (the common outcome is that a mid-transition task
				// or freshly queued work shows it is not). Drop our lock
				// first — verification takes all of them.
				sh.mu.Unlock()
				e.verifyStalled()
				sh.mu.Lock()
				if e.stop.Load() || (sh.running == 0 && !sh.empty()) {
					e.parked.Add(-1)
					continue
				}
				// Stood down for another shard's pending wakeup (or
				// requeued only other shards): wait, still parked, for
				// that worker to run and re-park — see the quiescence
				// rule in the type comment.
			}
			sh.cond.Wait()
			e.parked.Add(-1)
		}
		id := sh.take()
		sh.running = 1
		e.active.Add(1)
		sh.mu.Unlock()
		e.resume(&e.tasks[id])
		sh.mu.Lock()
	}
}

// resume hands the shard's execution token to t: start its goroutine on
// first schedule, unblock its handoff channel afterwards. The caller must
// hold the token (have popped t's id) and nothing else; resume does not
// wait for t — the resumer either parks right after (task chains) or goes
// back to its own wait loop (workers).
func (e *eventEngine) resume(t *eventTask) {
	if !t.started {
		// Mutating started/ch outside any lock is safe: the right to
		// resume a task is handed over through its run-queue entry, so
		// successive resumers are ordered by the shard lock and by this
		// task's own suspensions in between.
		t.started = true
		t.ch = make(chan struct{})
		go e.taskMain(t)
		return
	}
	t.ch <- struct{}{}
}

// park suspends the calling task, which holds its home shard's execution
// token: pass the token to the next runnable task of the shard, or release
// it if none is queued, then block until resumed. Called with sh.mu held;
// returns with no locks held.
func (e *eventEngine) park(t *eventTask, sh *eventShard) {
	next := int32(-1)
	if !sh.empty() {
		next = sh.take()
	} else {
		sh.running = 0
		e.active.Add(-1)
	}
	sh.mu.Unlock()
	if next == t.id {
		// Our own wakeup was already queued (a barrier release or failure
		// path ran between this task recording its suspension and this
		// pop): consume it and keep running — the token never leaves us.
		return
	}
	if next >= 0 {
		e.resume(&e.tasks[next])
	} else {
		// Token released with an empty queue: wake the worker so the last
		// one to park can re-examine the pool for quiescence.
		sh.cond.Signal()
	}
	<-t.ch
}

// release hands a finished task's execution token onward: resume the next
// runnable task of the home shard, or return the token to the worker. A
// finished task can never be requeued (it is neither waiting nor a barrier
// waiter), so unlike park there is no self-pop case and nothing to block
// on.
func (e *eventEngine) release(t *eventTask) {
	sh := &e.shards[e.shardOf(int(t.id))]
	sh.mu.Lock()
	if !sh.empty() {
		next := sh.take()
		sh.mu.Unlock()
		e.resume(&e.tasks[next])
		return
	}
	sh.running = 0
	e.active.Add(-1)
	sh.mu.Unlock()
	sh.cond.Signal()
}

// taskMain is the goroutine body of one task: run the SPMD body, record
// the outcome, count down the pool, and pass the execution token onward.
func (e *eventEngine) taskMain(t *eventTask) {
	r := &e.w.ranks[t.id]
	defer func() {
		if rec := recover(); rec != nil {
			e.errs[t.id] = fmt.Errorf("rank %d: %v", t.id, rec)
			e.fail(fmt.Sprintf("rank %d panicked: %v", t.id, rec))
			// Keep the words moved in an unfinished phase in the stats.
			r.foldPhase()
		} else {
			// Close any phase span left open by the body. Completion
			// while peers still wait for this rank's messages is caught
			// by quiescence-triggered verification, not here.
			r.endPhase()
		}
		// Count down every task, panicked or not, so the pool always
		// observes termination even on an aborted world.
		if e.remaining.Add(-1) == 0 {
			e.stopAll()
		}
		e.release(t)
	}()
	e.body(r)
}

// stopAll wakes every worker for exit after the last task finishes.
func (e *eventEngine) stopAll() {
	e.stop.Store(true)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// abort panics with the recorded failure message (caught in taskMain).
func (e *eventEngine) abort() {
	panic("machine: aborted: " + e.failMsg)
}

// fail marks the world failed and requeues every blocked task so it can
// observe the failure and abort. Later failers return immediately: the
// requeue is ordered after the failure flag, so any task that parks later
// saw the flag under its shard lock and aborted instead of parking.
func (e *eventEngine) fail(msg string) {
	e.detMu.Lock()
	if e.failed.Load() {
		e.detMu.Unlock()
		return
	}
	e.failMsg = msg
	e.failed.Store(true)
	e.detMu.Unlock()
	e.wakeAllBlocked()
}

// wakeAllBlocked requeues every parked task — barrier waiters first, then
// parked Recvs shard by shard — taking one lock at a time (the barrier
// waiters are snapshotted under the barrier lock and pushed after it is
// released, preserving the single-lock rule).
func (e *eventEngine) wakeAllBlocked() {
	b := &e.bar
	b.mu.Lock()
	waiters := b.waiters
	b.waiters = nil
	b.mu.Unlock()
	e.enqueueReady(waiters)
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := e.shardRange(si)
		sh.mu.Lock()
		for id := lo; id < hi; id++ {
			t := &e.tasks[id]
			if t.waiting {
				t.waiting = false
				sh.runq = append(sh.runq, t.id)
			}
		}
		idle := sh.running == 0
		sh.mu.Unlock()
		if idle {
			sh.cond.Signal()
		}
	}
}

// enqueueReady pushes a batch of task ids onto their home shards' run
// queues, grouping consecutive same-shard ids into one lock acquisition
// (with few shards a whole barrier release is a handful of appends). Only
// an idle shard's worker is signaled; a held token obligates its chain to
// drain the queue, so the wakeup is never lost.
func (e *eventEngine) enqueueReady(ids []int32) {
	for i := 0; i < len(ids); {
		si := e.shardOf(int(ids[i]))
		j := i + 1
		for j < len(ids) && e.shardOf(int(ids[j])) == si {
			j++
		}
		sh := &e.shards[si]
		sh.mu.Lock()
		sh.runq = append(sh.runq, ids[i:j]...)
		idle := sh.running == 0
		sh.mu.Unlock()
		if idle {
			sh.cond.Signal()
		}
		i = j
	}
}

// send enqueues a message (eager, non-blocking delivery), requeueing the
// receiver only if it is parked waiting for exactly this (src, tag). The
// receiver's shard is woken only if its token is free; otherwise the chain
// holding it picks the receiver up on its next handoff.
func (e *eventEngine) send(m *message) {
	t := &e.tasks[m.dst]
	sh := &e.shards[e.shardOf(m.dst)]
	sh.mu.Lock()
	sh.queueMsg(m)
	if t.waiting && int(t.wantSrc) == m.src && int(t.wantTag) == m.tag {
		t.waiting = false
		// Schedule the receiver in the hot slot so it consumes m while the
		// payload is still in cache, displacing any previous occupant into
		// the hot queue (still ahead of the cold main queue).
		if sh.next >= 0 {
			sh.hotq = append(sh.hotq, sh.next)
		}
		sh.next = t.id
		idle := sh.running == 0
		sh.mu.Unlock()
		if idle {
			sh.cond.Signal()
		}
		return
	}
	sh.mu.Unlock()
}

// recv returns the next message from src to dst with the given tag,
// suspending the task if none is queued yet. FIFO order among same-tag
// messages is preserved by the shard's message store.
func (e *eventEngine) recv(dst, src, tag int) *message {
	t := &e.tasks[dst]
	sh := &e.shards[e.shardOf(dst)]
	sh.mu.Lock()
	if e.failed.Load() {
		sh.mu.Unlock()
		e.abort()
	}
	if m := sh.takeMsg(dst, src, tag); m != nil {
		sh.mu.Unlock()
		return m
	}
	// Park: advertise what we wait for, then suspend, passing the shard's
	// execution token onward in the same critical section. The matching
	// sender (or a failure path) clears waiting and requeues us; whoever
	// holds our shard's token then resumes us — the unbuffered handoff
	// channel holds the wakeup even if it arrives before we block.
	t.waiting, t.wantSrc, t.wantTag = true, int32(src), int32(tag)
	e.park(t, sh)
	sh.mu.Lock()
	if e.failed.Load() {
		sh.mu.Unlock()
		e.abort()
	}
	m := sh.takeMsg(dst, src, tag)
	sh.mu.Unlock()
	if m == nil {
		panic("machine: woken without a matching message")
	}
	return m
}

// barrier synchronizes all ranks and aligns their clocks to the maximum.
// The last arrival publishes the max clock and releases the whole
// generation with one batched requeue; everyone else records itself as a
// waiter and suspends.
func (e *eventEngine) barrier(r *Rank) {
	b := &e.bar
	t := &e.tasks[r.id]
	b.mu.Lock()
	if e.failed.Load() {
		b.mu.Unlock()
		e.abort()
	}
	if r.clock > b.clock {
		b.clock = r.clock
	}
	if len(b.waiters) == e.w.p-1 {
		// Last arrival: release the generation. Snapshot the waiters and
		// requeue them after dropping the lock (single-lock rule). The
		// release clock stays readable until every waiter departs — no
		// rank can re-arrive before all of this generation have left.
		b.release = b.clock
		b.clock = 0
		waiters := b.waiters
		b.waiters = nil
		b.gen++
		r.clock = b.release
		b.mu.Unlock()
		e.enqueueReady(waiters)
		return
	}
	b.waiters = append(b.waiters, t.id)
	gen := b.gen
	b.mu.Unlock()
	// Suspend, passing the home shard's token onward. Unlike Recv the
	// suspension is recorded under the barrier lock, not the shard lock,
	// so the release (or a failure path) may already have requeued us by
	// the time park pops — park consumes that self-wakeup and returns
	// immediately.
	sh := &e.shards[e.shardOf(int(t.id))]
	sh.mu.Lock()
	e.park(t, sh)
	b.mu.Lock()
	if b.gen == gen {
		// Resumed without a release: the world failed while we waited.
		b.mu.Unlock()
		e.abort()
	}
	r.clock = b.release
	b.mu.Unlock()
}

// verifyStalled decides exactly whether the idle pool is a deadlock.
// Called by the last worker to park once no chain appears live; under the
// detector mutex, every shard lock, and the barrier lock, the task states,
// run queues, and message stores form a consistent snapshot. If some token
// is held or some run queue is non-empty, the world is live. A task that
// was requeued but not yet resumed is neither waiting nor finished, so the
// state sum check below fails and the verdict stays conservative.
// Otherwise every task is waiting, a barrier waiter, or finished; the
// world is stuck unless a waiting task has a matching queued message
// (impossible by construction here, but checked for exactness). On a
// verified deadlock every blocked task is requeued, still under the locks,
// to resume and abort.
func (e *eventEngine) verifyStalled() {
	e.detMu.Lock()
	defer e.detMu.Unlock()
	if e.failed.Load() || e.stop.Load() {
		return
	}
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	e.bar.mu.Lock()
	unlock := func() {
		e.bar.mu.Unlock()
		for i := range e.shards {
			e.shards[i].mu.Unlock()
		}
	}
	for i := range e.shards {
		if e.shards[i].running != 0 {
			unlock()
			return // a chain still holds this shard's token
		}
		if !e.shards[i].empty() {
			unlock()
			return // queued work: its worker has a pending wakeup
		}
	}
	inflight := 0
	for i := range e.shards {
		inflight += e.shards[i].inflight
	}
	recvBlocked := 0
	for i := range e.tasks {
		t := &e.tasks[i]
		if t.waiting {
			recvBlocked++
			if e.shards[e.shardOf(i)].peekMsg(i, int(t.wantSrc), int(t.wantTag)) {
				unlock()
				return // pending wakeup: a matching message is queued
			}
		}
	}
	barParked := len(e.bar.waiters)
	done := e.w.p - int(e.remaining.Load())
	if recvBlocked+barParked+done != e.w.p {
		unlock()
		return // raced with a task between states; not truly quiescent
	}
	if done == e.w.p {
		unlock()
		return // normal termination; stopAll is already on its way
	}
	msg := deadlockMessage(recvBlocked, barParked, done, inflight)
	if msg == "" {
		unlock()
		return // all-Barrier with no finisher resolves via the release
	}
	if obs.Enabled() {
		mDeadlocks.Inc()
	}
	e.failMsg = msg
	e.failed.Store(true)
	// Requeue every blocked task, still under all the locks, so each
	// resumes, observes the failure, and aborts. The barrier generation
	// stays unreleased: resumed waiters see gen unchanged and abort.
	for _, id := range e.bar.waiters {
		sh := &e.shards[e.shardOf(int(id))]
		sh.runq = append(sh.runq, id)
	}
	e.bar.waiters = nil
	for i := range e.tasks {
		t := &e.tasks[i]
		if t.waiting {
			t.waiting = false
			sh := &e.shards[e.shardOf(i)]
			sh.runq = append(sh.runq, t.id)
		}
	}
	unlock()
	for i := range e.shards {
		e.shards[i].cond.Signal()
	}
}
