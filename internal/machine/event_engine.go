package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// eventEngine is the simulator's scheduler: ranks run as cooperatively
// scheduled tasks, and the tasks drive the scheduling themselves.
//
// Go has no stack-capturing continuations, so each task owns a goroutine,
// parked on its private handoff channel while it does not run; the engine
// starts no other goroutine. Ranks are pinned by contiguous blocks to one of
// W shards, and each shard has one execution token: a task runs only while
// it holds its shard's token. So at most W tasks are runnable at any
// moment, the Go scheduler's run queues stay tiny regardless of P, and
// there are no per-rank condition variables. That is what makes P=65536
// full simulations interactive and P ≥ 10^6 communication-counting runs
// feasible in a few GB (the residual per-rank cost is one small task
// struct, one channel, and one parked goroutine stack).
//
// One invariant carries the design: a shard's run queue is non-empty only
// while its token is held. The holder passes the token on itself: a task
// that suspends or finishes pops the next runnable id of its shard and
// resumes that task directly — one channel send, one context switch — or
// frees the token when nothing is queued. Whoever queues a task on a shard
// whose token is free takes the token and resumes the task at once: run
// for each shard's first task, a send for the receiver it hands its message
// to, and the failure paths for each idle shard they requeue tasks into.
// A push onto a shard whose token is held signals no one: the holder
// drains the queue before it frees the token (it pops under the same lock).
//
// The only suspension point is the machine model's one blocking
// operation: Recv with no matching message stored. Send never suspends
// (eager delivery). A send that finds its receiver parked for exactly its
// (source, tag) hands the message to that task's slot instead of storing
// it, so the message stores hold only early arrivals, and a receive looks
// in them only when something is stored for it.
//
// Deadlock detection: active counts held tokens. Only run, before any task
// starts, and a task that holds a token already take one, so once active
// falls to zero nothing can raise it but the task that lowered it. That
// task therefore sees the world at rest, and it ends the run. If no task is
// left, it closes done. Otherwise nothing runs or waits to run, so every
// unfinished task is parked in Recv, and none has a matching message stored
// (a receive parks only after finding nothing stored for it, and a send
// hands over what a parked receiver waits for): the world is deadlocked.
// The releasing task records the verdict under the shard locks and requeues
// every parked task so it resumes and aborts. If it is parked itself, it
// keeps its shard's token and aborts without blocking.
//
// Lock ordering: outside deadlock, at most one engine lock is held at a
// time. deadlock alone nests every shard lock in index order.
type eventEngine struct {
	w    *World
	body func(*Rank)

	// nw is the shard count W.
	nw     int
	shards []eventShard
	tasks  []eventTask
	errs   []error

	// remaining counts unfinished tasks and active held tokens; the task
	// that brings active to zero ends the run (see above), closing done
	// when remaining is zero too.
	remaining atomic.Int64
	active    atomic.Int32
	done      chan struct{}

	// failMsg, once set, says why the world failed; a task that resumes
	// or tries to park afterwards aborts with it. The first failure wins.
	failMsg atomic.Pointer[string]

	// ran is set by the first run; a World runs once.
	ran atomic.Bool
}

// eventShard is one shard's run queue plus its execution token. head
// indexes the next runnable id; the slice is compacted when drained.
// running is set while a task holds the token (guarded by mu).
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
// Failure-path wakeups go straight to the main queue: they carry no hot
// data.
//
// The shard also holds the message store of the ranks homed on it: one
// map from (destination, source) to that pair's FIFO, under the same lock
// senders and receivers already take to requeue and park. It holds only
// messages that arrive before their receive asks for them: a message whose
// receiver is already parked for it goes to the receiver directly. A
// pair's entry is deleted when its queue drains, so the map holds only
// pairs with messages stored, and a world allocates a handful of maps
// rather than one per rank plus one queue per peer.
//
// cache is the arena cache the world owns for this shard while it runs
// (see pool.go). Only the holder of the shard's token touches it, so its
// gets and puts take no lock.
//
// The trailing padding rounds the shard up to 128 bytes, two whole cache
// lines, so adjacent shards never share one.
type eventShard struct {
	mu      sync.Mutex
	runq    []int32
	head    int
	hotq    []int32
	hoth    int
	next    int32
	running bool

	queues map[uint64]msgQueue
	cache  *arenaCache

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
		return m
	}
	return nil
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

// eventTask is the suspension state of one rank: its handoff channel, the
// description of the Recv it is parked in, if any, and the message a
// sender handed it there.
// waiting, wantSrc, wantTag and stored are guarded by the home shard's
// lock; started and ch are touched only by whoever resumes the task, and
// msg by the sender that clears waiting and then the task once resumed.
type eventTask struct {
	id      int32
	started bool
	// waiting/wantSrc/wantTag describe a parked Recv: a sender whose
	// message matches hands it over and requeues the task.
	waiting bool
	wantSrc int32
	wantTag int
	// msg is the message handed to the parked Recv; stored counts this
	// task's messages in the shard's store, which a Recv searches only
	// when it is positive and a deadlock verdict sums as undeliverable.
	msg    *message
	stored int
	ch     chan struct{}
}

// newEventEngine builds the scheduler for w with the given shard count
// (values below one select GOMAXPROCS, capped at P).
func newEventEngine(w *World, shards int) *eventEngine {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > w.p {
		shards = w.p
	}
	e := &eventEngine{
		w:      w,
		nw:     shards,
		shards: make([]eventShard, shards),
		tasks:  make([]eventTask, w.p),
		errs:   make([]error, w.p),
		done:   make(chan struct{}),
	}
	for i := range e.shards {
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
// si (the preimage of shardOf). Every shard has at least one rank.
func (e *eventEngine) shardRange(si int) (lo, hi int) {
	lo = (si*e.w.p + e.nw - 1) / e.nw
	hi = ((si+1)*e.w.p + e.nw - 1) / e.nw
	return lo, hi
}

// run hands each shard's token to the shard's first task, with the rest
// of its ranks queued behind and an arena cache of the world's own, and
// waits until the last task has finished and released its token. A second
// run, even a concurrent one, fails at once: the tasks of the first are
// gone, and its caches are handed back.
func (e *eventEngine) run(body func(*Rank)) error {
	if !e.ran.CompareAndSwap(false, true) {
		return errors.New("machine: World.Run called twice; a World runs once")
	}
	claimCaches(e.shards)
	defer returnCaches(e.shards)
	e.body = body
	e.remaining.Store(int64(e.w.p))
	e.active.Store(int32(e.nw))
	for si := range e.shards {
		lo, hi := e.shardRange(si)
		runq := make([]int32, 0, hi-lo-1)
		for id := lo + 1; id < hi; id++ {
			runq = append(runq, int32(id))
		}
		e.shards[si].runq = runq
		e.shards[si].running = true
	}
	// Every token is counted before the first task starts, so no task
	// can see active reach zero while another shard is still unstarted.
	for si := range e.shards {
		lo, _ := e.shardRange(si)
		e.resume(&e.tasks[lo])
	}
	<-e.done
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resume hands the shard's execution token to t: start its goroutine on
// first schedule, unblock its handoff channel afterwards. The caller must
// hold the token for t and no lock. resume waits at most for t to reach
// its channel receive, which a parked task does without taking a lock.
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

// park suspends the calling task, which holds its home shard's token and
// has advertised the receive it waits for: pass the token on, then block
// until resumed — unless the release declared the world deadlocked and
// gave the task its token back, in which case it returns at once to abort.
// Called with sh.mu held; returns with no locks held.
func (e *eventEngine) park(t *eventTask, sh *eventShard) {
	if !e.release(t, sh) {
		<-t.ch
	}
}

// release passes the token of sh, held by t, to the shard's next runnable
// task, or frees it when none is queued. Freeing the last held token ends
// the run: with no task left, release closes done; otherwise it declares
// the deadlock, and reports whether t, parked, got its token back. Called
// with sh.mu held; returns with no locks held.
func (e *eventEngine) release(t *eventTask, sh *eventShard) bool {
	if !sh.empty() {
		next := sh.take()
		sh.mu.Unlock()
		e.resume(&e.tasks[next])
		return false
	}
	sh.running = false
	sh.mu.Unlock()
	if e.active.Add(-1) > 0 {
		return false
	}
	if e.remaining.Load() == 0 {
		close(e.done)
		return false
	}
	return e.deadlock(t)
}

// taskMain is the goroutine body of one task: run the SPMD body, record
// the outcome, count the task finished, and pass the execution token on.
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
			// while peers still wait for this rank's messages shows as a
			// deadlock once the last token is released, not here.
			r.endPhase()
		}
		e.remaining.Add(-1)
		r.home.mu.Lock()
		e.release(t, r.home)
	}()
	e.body(r)
}

// abort panics with the recorded failure message (caught in taskMain).
func (e *eventEngine) abort() {
	panic("machine: aborted: " + *e.failMsg.Load())
}

// fail records msg as the world's failure, unless it failed already, and
// requeues every task parked in Recv so it can observe the failure and
// abort, taking the token of each idle shard it requeues into and resuming
// that shard's first task. Called by a task holding its own shard's token.
// The requeue is ordered after the failure is recorded, so a task that
// parks later sees it under its shard lock and aborts instead of parking.
func (e *eventEngine) fail(msg string) {
	if !e.failMsg.CompareAndSwap(nil, &msg) {
		return
	}
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		next := e.requeue(si)
		sh.mu.Unlock()
		if next != nil {
			e.resume(next)
		}
	}
}

// requeue queues every task of shard si parked in Recv. If that leaves
// work on the shard with its token free, requeue takes the token and
// returns the task to resume with it; otherwise nil. Callers hold the
// shard's lock.
func (e *eventEngine) requeue(si int) *eventTask {
	sh := &e.shards[si]
	lo, hi := e.shardRange(si)
	for id := lo; id < hi; id++ {
		if t := &e.tasks[id]; t.waiting {
			t.waiting = false
			sh.runq = append(sh.runq, t.id)
		}
	}
	if sh.running || sh.empty() {
		return nil
	}
	sh.running = true
	e.active.Add(1)
	return &e.tasks[sh.take()]
}

// deadlock fails the world on the verdict of deadlockMessage. It is called
// by the task t that freed the last held token with tasks left, so every
// unfinished task is parked in Recv (see the type comment). Under every
// shard lock it counts them, records the verdict, and requeues them with
// a token for each shard, resuming the tasks only once every token is
// taken, so that none of them frees the last token before all are queued.
// If t is parked itself, it keeps its own shard's token, and deadlock
// reports true for t to abort without blocking.
func (e *eventEngine) deadlock(t *eventTask) bool {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	recvBlocked, inflight := 0, 0
	for i := range e.tasks {
		inflight += e.tasks[i].stored
		if e.tasks[i].waiting {
			recvBlocked++
		}
	}
	msg := deadlockMessage(recvBlocked, e.w.p-int(e.remaining.Load()), inflight)
	e.failMsg.Store(&msg)
	if obs.Enabled() {
		mDeadlocks.Inc()
	}
	self := t.waiting
	if self {
		t.waiting = false
		e.shards[e.shardOf(int(t.id))].running = true
		e.active.Add(1)
	}
	var next []*eventTask
	for si := range e.shards {
		if nt := e.requeue(si); nt != nil {
			next = append(next, nt)
		}
	}
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
	for _, nt := range next {
		e.resume(nt)
	}
	return self
}

// send delivers a message (eager, non-blocking). If the receiver is parked
// waiting for exactly this (src, tag), the message goes to its slot and
// the receiver is made runnable: resumed at once on its shard's token if
// that token is free, else scheduled in the hot slot for the holder to pick
// up on its next handoff. Otherwise the message is stored.
func (e *eventEngine) send(m *message) {
	dst := m.dst // m is the receiver's once the lock drops
	t := &e.tasks[dst]
	sh := &e.shards[e.shardOf(dst)]
	sh.mu.Lock()
	if !t.waiting || int(t.wantSrc) != m.src || t.wantTag != m.tag {
		sh.queueMsg(m)
		t.stored++
		sh.mu.Unlock()
		return
	}
	t.waiting = false
	t.msg = m
	if obs.Enabled() {
		mDirect.Inc(dst)
	}
	if !sh.running {
		sh.running = true
		e.active.Add(1)
		sh.mu.Unlock()
		e.resume(t)
		return
	}
	// Schedule the receiver in the hot slot so it consumes m while the
	// payload is still in cache, displacing any previous occupant into the
	// hot queue (still ahead of the cold main queue).
	if sh.next >= 0 {
		sh.hotq = append(sh.hotq, sh.next)
	}
	sh.next = t.id
	sh.mu.Unlock()
}

// recv returns the next message from src to dst with the given tag,
// suspending the task if none is stored yet. The store keeps FIFO order
// among same-tag messages, and a message handed over while the task is
// parked is the first with its (src, tag): a send that finds the task
// parked found nothing of that (src, tag) stored.
func (e *eventEngine) recv(dst, src, tag int) *message {
	t := &e.tasks[dst]
	sh := &e.shards[e.shardOf(dst)]
	sh.mu.Lock()
	if e.failMsg.Load() != nil {
		sh.mu.Unlock()
		e.abort()
	}
	if t.stored > 0 {
		if m := sh.takeMsg(dst, src, tag); m != nil {
			t.stored--
			sh.mu.Unlock()
			return m
		}
	}
	// Park: advertise what we wait for, then suspend, passing the shard's
	// execution token onward in the same critical section. The matching
	// sender hands its message to t.msg (or a failure path leaves it nil)
	// and clears waiting; whoever then holds or takes our shard's token
	// resumes us through the unbuffered handoff channel (a resumer that
	// comes before we block waits for us), which orders the sender's write
	// before our read.
	t.waiting, t.wantSrc, t.wantTag = true, int32(src), tag
	e.park(t, sh)
	if e.failMsg.Load() != nil {
		e.abort()
	}
	m := t.msg
	t.msg = nil
	if m == nil {
		panic("machine: woken without a matching message")
	}
	return m
}
