package machine

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
)

// unit is the sense barrier's channel element, where release is signaled by
// close, and a node coroutine's yield value, where the yield is the clock
// boundary: the value itself carries nothing.
type unit = struct{}

// poolWorker is one party of the stepped scheduler. A worker owns the
// contiguous node shard [lo, hi) and advances every live node in it by one
// clock cycle per barrier round. Its fields are written only by the owning
// worker goroutine during a pass and read (and sent reset) only by the
// barrier leader while all workers are parked, so none of them need
// atomics.
type poolWorker struct {
	lo, hi int
	parity uint32 // local barrier sense, flipped every round
	active int    // live (not yet finished) nodes after the latest pass
	sent   bool   // did any node of this shard send since the last round?
}

// runWorkers executes program under the stepped worker-pool scheduler.
func (e *engine[T]) runWorkers(program func(c *ctx[T])) {
	w := e.cfg.Workers
	e.state = roundRun
	e.workers = make([]poolWorker, w)
	per, rem := e.n/w, e.n%w
	lo := 0
	for i := range e.workers {
		hi := lo + per
		if i < rem {
			hi++
		}
		e.workers[i] = poolWorker{lo: lo, hi: hi}
		lo = hi
	}
	e.wbar = newSenseBarrier(w, e.poolLeader)

	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.workerMain(i, program)
		}()
	}
	e.workerMain(0, program) // the caller is worker 0
	wg.Wait()
}

// workerMain is one worker's life for the run: start one coroutine per node
// of its shard, then alternate full passes over the live ones with barrier
// rounds until the leader declares the run over. Finished coroutines are
// compacted out of the pass list so completed nodes cost nothing in later
// cycles. After an abnormal end (failure or desync) one extra drain pass
// resumes each still-live program, whose next clock boundary observes
// roundAbort and unwinds with errAborted, so every coroutine of the shard
// has returned when the worker does.
func (e *engine[T]) workerMain(wi int, program func(c *ctx[T])) {
	w := &e.workers[wi]
	live := make([]func() (unit, bool), 0, w.hi-w.lo)
	for u := w.lo; u < w.hi; u++ {
		c := &e.nodes[u]
		c.worker = w
		// No stop function is kept: every coroutine runs to its return
		// before the worker does (the drain pass below), which ends it.
		next, _ := iter.Pull(e.nodeSeq(c, program))
		live = append(live, next)
	}
	for {
		// Compaction of finished coroutines starts lazily: under the SPMD
		// discipline every node of the shard finishes in the same pass, so
		// the common pass moves nothing and the loop body is one resume per
		// live node.
		k := -1
		for i := range live {
			if _, stepping := live[i](); !stepping {
				if k < 0 {
					k = i
				}
			} else if k >= 0 {
				live[k] = live[i]
				k++
			}
		}
		if k >= 0 {
			live = live[:k]
		}
		w.active = len(live)
		e.wbar.wait(&w.parity)
		if e.state != roundRun {
			break
		}
	}
	if e.state == roundAbort {
		for i := range live {
			live[i]() // resume into the abort check; the program unwinds and returns
		}
	}
}

// nodeSeq is the body of one node's coroutine: it runs program once, and
// its yield function is the node's clock boundary. runNode records protocol
// failures and user panics as the run's error, so the coroutine always
// returns normally.
func (e *engine[T]) nodeSeq(c *ctx[T], program func(c *ctx[T])) iter.Seq[unit] {
	return func(yield func(unit) bool) {
		c.yield = yield
		e.runNode(c, program)
	}
}

// runNode executes program on one node, converting panics into the run's
// recorded failure.
func (e *engine[T]) runNode(c *ctx[T], program func(c *ctx[T])) {
	defer func() {
		if r := recover(); r != nil {
			if ap, ok := r.(abortPanic); ok {
				e.fail(ap.err)
			} else {
				e.fail(fmt.Errorf("machine: node %d panicked: %v", c.id, r))
			}
		}
	}()
	program(c)
}

// poolLeader is the per-cycle accounting, run exactly once per barrier
// round by the last worker to arrive while all others are parked. It is
// the scheduler's authority on global progress:
//
//   - every node stepped: one clock cycle elapsed (a comm cycle if any
//     shard sent);
//   - every node finished: the run completed — the final pass ran program
//     epilogues only, so no cycle is counted;
//   - a strict subset finished: the SPMD lockstep is broken, which the
//     leader sees immediately and deterministically, with no timeout.
func (e *engine[T]) poolLeader() {
	total, any := 0, false
	for i := range e.workers {
		w := &e.workers[i]
		total += w.active
		any = any || w.sent
		w.sent = false
	}
	switch {
	case e.failed.Load():
		e.state = roundAbort
	case total == 0:
		e.state = roundDone
	case total < e.n:
		e.fail(fmt.Errorf("machine: desynchronized program: %d of %d nodes finished after cycle %d while the rest kept stepping", e.n-total, e.n, e.cycles))
		e.state = roundAbort
	default:
		e.cycles++
		if any {
			e.commCycles++
		}
	}
}

// senseBarrier is a sense-reversing barrier over the W pool workers. Each
// worker keeps a local parity (its sense); arrival is one atomic add, and
// the release channel for each parity is double-buffered so rounds cannot
// interfere: the leader re-arms the opposite parity's channel before
// releasing the current round, and a worker can only reach the next round's
// wait after being released from this one. The leader runs the round action
// while every other worker is parked. With a single worker the barrier
// degenerates to an inline action call — no atomics, no channels.
type senseBarrier struct {
	parties int32
	count   atomic.Int32
	release [2]chan unit
	action  func()
}

func newSenseBarrier(parties int, action func()) *senseBarrier {
	b := &senseBarrier{parties: int32(parties), action: action}
	b.release[0] = make(chan unit)
	b.release[1] = make(chan unit)
	return b
}

// wait blocks until all parties have arrived for the caller's current
// round. sense points at the caller's local round counter, advanced on
// every call; its low bit selects the release channel.
func (b *senseBarrier) wait(sense *uint32) {
	p := *sense & 1
	*sense++
	if b.parties == 1 {
		b.action()
		return
	}
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		b.release[1-p] = make(chan unit)
		b.action()
		close(b.release[p])
		return
	}
	<-b.release[p]
}
