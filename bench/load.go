package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// mix derives an independent 64-bit value from (seed, i): the splitmix64
// finalizer, so per-operation inputs depend only on the seed and the
// operation's index, never on timing.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// phase is what one or more closed loops measured: the latency of each
// successful operation, the counts, and the wall time the loops ran.
type phase struct {
	latencies histogram
	attempted int
	failed    int     // failed, refused or wrong
	wrong     int     // answered, but the check failed
	errs      []error // the first maxLoggedFailures failures
	wall      time.Duration
}

// record adds one operation: its latency from send to answer, and its
// error, which wrong marks as a failed check of the answer.
func (p *phase) record(latency time.Duration, err error, wrong bool) {
	p.attempted++
	if err == nil {
		p.latencies.add(latency)
		return
	}
	p.failed++
	if wrong {
		p.wrong++
	}
	if len(p.errs) < maxLoggedFailures {
		p.errs = append(p.errs, err)
	}
}

// add merges q into p, adding its wall time.
func (p *phase) add(q phase) {
	p.latencies.merge(q.latencies)
	p.attempted += q.attempted
	p.failed += q.failed
	p.wrong += q.wrong
	p.errs = append(p.errs, q.errs[:min(len(q.errs), maxLoggedFailures-len(p.errs))]...)
	p.wall += q.wall
}

// closedLoop runs clients that each send their next operation as soon as
// the previous one answered, until d has passed. Operation indexes are
// drawn from next, so every operation has its own inputs. Only the
// operation is timed, not the check of its answer.
func closedLoop(ctx context.Context, inst instance, clients int, d time.Duration, next *atomic.Int64) phase {
	var (
		mu  sync.Mutex
		out phase
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine phase
			for time.Now().Before(deadline) {
				sent := time.Now()
				check, err := inst.op(ctx, int(next.Add(1)-1))
				latency := time.Since(sent)
				wrong := false
				if err == nil {
					err = check()
					wrong = err != nil
				}
				mine.record(latency, err, wrong)
			}
			mu.Lock()
			out.add(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// A run is cut into segments of about a second, and the workload is set up
// again between them, so that setup_s samples the host over the whole run
// as the load does: the host's speed changes by tens of percent from one
// second to the next, and a handful of samples caught only a few of those
// seconds.
const segment = time.Second

// maxLoggedFailures bounds the failures a run reports one by one on
// standard error; the rest are only counted.
const maxLoggedFailures = 5

// runLoad drives inst with w.clients closed-loop clients for d, in
// segments, and calls between, untimed, after each segment. A segment
// ends when the operations in flight at its deadline answer, so each
// segment is cut short by what the earlier ones ran over.
func runLoad(ctx context.Context, w *workload, inst instance, d time.Duration, between func()) phase {
	var next atomic.Int64
	var all phase
	for all.wall < d {
		all.add(closedLoop(ctx, inst, w.clients, min(segment, d-all.wall), &next))
		between()
	}
	for _, err := range all.errs {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
	}
	return all
}
