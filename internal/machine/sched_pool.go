package machine

import (
	"fmt"
	"iter"
)

// unit is a node coroutine's yield value: the yield is the clock boundary,
// and the value itself carries nothing.
type unit = struct{}

// runNodes executes program on every node in lockstep: start one coroutine
// per node, then alternate a pass that resumes every live one, in node
// order, with the cycle's accounting until the accounting declares the run
// over. Finished coroutines are compacted out of the pass list so completed
// nodes cost nothing in later cycles. After an abnormal end (failure or
// desync) one extra drain pass resumes each still-live program, whose next
// clock boundary observes roundAbort and unwinds with errAborted, so every
// coroutine has returned when runNodes does.
func (e *engine[T]) runNodes(program func(c *ctx[T])) {
	live := make([]func() (unit, bool), e.n)
	for u := range e.nodes {
		// No stop function is kept: every coroutine runs to its return
		// before runNodes does (the drain pass below), which ends it.
		live[u], _ = iter.Pull(e.nodeSeq(&e.nodes[u], program))
	}
	e.state = roundRun
	for e.state == roundRun {
		// Compaction of finished coroutines starts lazily: under the SPMD
		// discipline every node finishes in the same pass, so the common
		// pass moves nothing and the loop body is one resume per live node.
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
		e.endCycle(len(live))
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

// endCycle is the per-cycle accounting, run once after every pass with
// the number of nodes still stepping. It is the scheduler's authority on
// global progress:
//
//   - every node stepped: one clock cycle elapsed (a comm cycle if any node
//     sent);
//   - every node finished: the run completed — the final pass ran program
//     epilogues only, so no cycle is counted;
//   - a strict subset finished: the SPMD lockstep is broken, which the
//     accounting sees immediately and deterministically, with no timeout.
func (e *engine[T]) endCycle(active int) {
	switch {
	case e.failed.Load():
		e.state = roundAbort
	case active == 0:
		e.state = roundDone
	case active < e.n:
		e.fail(fmt.Errorf("machine: desynchronized program: %d of %d nodes finished after cycle %d while the rest kept stepping", e.n-active, e.n, e.cycles))
		e.state = roundAbort
	default:
		e.cycles++
		if e.sent {
			e.commCycles++
		}
	}
	e.sent = false
}
