package machine

import (
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// unit is the sense barrier's channel element; release is signaled by close,
// the value itself carries nothing.
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

// nodeRunner drives one node's persistent coroutine: next resumes it to its
// next yield — the yielded value is false at a clock boundary, true when the
// current run's program has returned and the coroutine parked between runs.
// stop unwinds a parked coroutine for good (engine teardown).
type nodeRunner struct {
	next func() (bool, bool)
	stop func()
}

// runWorkers executes program under the stepped worker-pool scheduler.
func (e *Engine[T]) runWorkers(program func(c *ctx[T])) {
	s := e.engineState
	w := s.cfg.Workers
	s.state = roundRun
	s.prog = program
	if cap(s.workers) >= w {
		s.workers = s.workers[:w]
	} else {
		s.workers = make([]poolWorker, w)
	}
	per, rem := s.n/w, s.n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + per
		if i < rem {
			hi++
		}
		s.workers[i] = poolWorker{lo: lo, hi: hi}
		lo = hi
	}
	s.wbar = newSenseBarrier(w, s.poolLeader)

	if e.runners.rs == nil {
		e.runners.rs = make([]nodeRunner, s.n)
		// The coroutines created below park between runs holding references
		// to the engineState only, never to the Engine handle — so if the
		// handle is dropped without Release, it becomes unreachable and this
		// finalizer unwinds the parked coroutines instead of leaking them.
		runtime.SetFinalizer(e, func(e *Engine[T]) { teardownRunners(e.runners) })
	}
	rs := e.runners.rs

	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.workerMain(i, rs)
		}()
	}
	s.workerMain(0, rs) // the caller is worker 0
	wg.Wait()
	s.prog = nil // release the program closure's captures between runs
}

// workerMain is one worker's life for one run: materialize any missing
// coroutines of the shard (first run only — they persist across runs,
// parked at their between-runs yield), then alternate full passes over the
// live ones with barrier rounds until the leader declares the run over.
// Finished runners are compacted out of the pass list so completed nodes
// cost nothing in later cycles. After an abnormal end (failure or desync)
// one extra drain pass resumes each still-live program, whose next clock
// boundary observes roundAbort and unwinds with errAborted, leaving every
// coroutine parked between runs again.
func (s *engineState[T]) workerMain(wi int, rs []nodeRunner) {
	w := &s.workers[wi]
	for u := w.lo; u < w.hi; u++ {
		s.nodes[u].worker = w
		if rs[u].next == nil {
			next, stop := iter.Pull(s.nodeLoop(&s.nodes[u]))
			rs[u] = nodeRunner{next: next, stop: stop}
		}
	}
	live := make([]func() (bool, bool), 0, w.hi-w.lo)
	for u := w.lo; u < w.hi; u++ {
		live = append(live, rs[u].next)
	}
	for {
		// Compaction of finished runners starts lazily: under the SPMD
		// discipline every node of the shard finishes in the same pass, so
		// the common pass moves nothing and the loop body is one resume per
		// live node.
		k := -1
		for i := range live {
			if done, _ := live[i](); done {
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
		s.wbar.wait(&w.parity)
		if s.state != roundRun {
			break
		}
	}
	if s.state == roundAbort {
		for i := range live {
			live[i]() // resume into the abort check; parks as done
		}
	}
}

// nodeLoop is the body of one node's persistent coroutine: an endless
// alternation of "run the engine's current program" and a between-runs park
// (yield true). The yield function doubles as the node's clock boundary
// while a program is running (yield false). Protocol failures and user
// panics are recovered per run in runNode and recorded as the run's error;
// the coroutine itself survives to serve the next run. It only returns when
// a teardown stop makes the between-runs yield report false.
func (s *engineState[T]) nodeLoop(c *ctx[T]) iter.Seq[bool] {
	return func(yield func(bool) bool) {
		for {
			c.yield = yield
			s.runNode(c)
			c.yield = nil
			if !yield(true) {
				return
			}
		}
	}
}

// runNode executes the current program on one node, converting panics into
// the run's recorded failure.
func (s *engineState[T]) runNode(c *ctx[T]) {
	defer func() {
		if r := recover(); r != nil {
			if ap, ok := r.(abortPanic); ok {
				s.fail(ap.err)
			} else {
				s.fail(fmt.Errorf("machine: node %d panicked: %v", c.id, r))
			}
		}
	}()
	s.prog(c)
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
func (s *engineState[T]) poolLeader() {
	total, any := 0, false
	for i := range s.workers {
		w := &s.workers[i]
		total += w.active
		any = any || w.sent
		w.sent = false
	}
	switch {
	case s.failed.Load():
		s.state = roundAbort
	case total == 0:
		s.state = roundDone
	case total < s.n:
		s.fail(fmt.Errorf("machine: desynchronized program: %d of %d nodes finished after cycle %d while the rest kept stepping", s.n-total, s.n, s.cycles))
		s.state = roundAbort
	default:
		s.cycles++
		if any {
			s.commCycles++
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
