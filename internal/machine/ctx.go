package machine

import (
	"fmt"
	"sync/atomic"
)

// Ctx is a node's handle onto the machine: its identity, its links and the
// global clock. Every public method that communicates advances the clock by
// exactly one cycle on this node; the SPMD discipline is that all nodes
// advance together, so a node with nothing to do in a cycle calls Idle.
type Ctx[T any] struct {
	engine *engineState[T]
	id     int
	ops    int
	cycle  int   // this node's local clock (== global clock under lockstep)
	msgs   int64 // messages sent by this node, merged into Stats at run end

	// Fault accounting (only written while a fault spec is armed), merged
	// into Stats.Faults at run end like msgs.
	refused int64 // send attempts on permanently failed links
	dropped int64 // transient in-flight losses
	delayed int64 // messages held back by at least one cycle

	// Exactly one of the following is set per run, selecting the clock
	// boundary mechanism: yield parks this node's persistent coroutine until
	// its worker reaches the next cycle (worker pool; the false payload
	// distinguishes a clock boundary from the coroutine's between-runs
	// park); a nil yield routes through the engine's N-party Barrier
	// (goroutine-per-node).
	yield  func(bool) bool
	worker *poolWorker

	// dctx is the node's DirectCtx under the KernelProgram adapter. Keeping
	// it inside the (pooled) node context lets the adapter hand kernels a
	// *DirectCtx without a per-node heap allocation per run.
	dctx DirectCtx
}

// ID returns this node's ID.
func (c *Ctx[T]) ID() int { return c.id }

// Nodes returns the machine size.
func (c *Ctx[T]) Nodes() int { return c.engine.n }

// Ops adds k computation rounds to this node's account. The paper counts
// one computation step per parallel round of ⊕ / comparison work; programs
// call Ops(1) once per such round.
func (c *Ctx[T]) Ops(k int) { c.ops += k }

// Cycle returns this node's local clock: the number of completed cycles,
// which equals the global clock under the SPMD lockstep discipline.
func (c *Ctx[T]) Cycle() int { return c.cycle }

// Idle spends one clock cycle without communicating.
func (c *Ctx[T]) Idle() {
	var zero T
	c.step(NoNode, zero, NoNode, NoNode)
}

// Exchange sends v to partner and receives partner's message of the same
// cycle — the paper's elementary bidirectional-link exchange. partner must
// be a neighbor that performs the mirror Exchange.
func (c *Ctx[T]) Exchange(partner int, v T) T {
	r, _ := c.step(partner, v, partner, NoNode)
	return r
}

// Send transmits v to neighbor `to` and spends the cycle (no receive).
func (c *Ctx[T]) Send(to int, v T) {
	c.step(to, v, NoNode, NoNode)
}

// Recv spends one cycle receiving the pending message from neighbor `from`.
// The message may have been sent this cycle or buffered from an earlier one.
func (c *Ctx[T]) Recv(from int) T {
	r, _ := c.step(NoNode, *new(T), from, NoNode)
	return r
}

// SendRecv sends v to neighbor `to` and receives from neighbor `from` in
// the same cycle (the two may be different links, or the same link — in
// which case it degenerates to Exchange).
func (c *Ctx[T]) SendRecv(to int, v T, from int) T {
	r, _ := c.step(to, v, from, NoNode)
	return r
}

// SendRecv2 sends v to neighbor `to` and receives from the two distinct
// links `from1` and `from2` in the same cycle. This is the full-duplex
// bidirectional-channel allowance the three-time-unit compare-and-exchange
// step of Section 6 relies on.
func (c *Ctx[T]) SendRecv2(to int, v T, from1, from2 int) (T, T) {
	return c.step(to, v, from1, from2)
}

// Recv2 receives from two distinct links in one cycle without sending.
func (c *Ctx[T]) Recv2(from1, from2 int) (T, T) {
	return c.step(NoNode, *new(T), from1, from2)
}

// TrySend transmits v to neighbor `to` and spends the cycle (no receive) —
// the fault-tolerant form of Send. It reports delivery refusal instead of
// aborting the run: false means the link is permanently down under the armed
// fault plan (the port is still spent, so the SPMD clock stays in lockstep).
// A transient in-flight drop is indistinguishable from a successful send —
// the wire loses the message after the sender let it go — and shows up only
// in Stats.Faults.
func (c *Ctx[T]) TrySend(to int, v T) bool {
	ok := c.send(to, v, true)
	c.boundary()
	return ok
}

// TryRecv spends one cycle attempting to receive the pending message from
// neighbor `from` — the fault-tolerant form of Recv. ok reports whether a
// message was pending and visible (a delayed message stays invisible until
// its extra latency has elapsed). Unlike Recv, an empty link is not a
// protocol error, so protocols that must survive lost messages poll with
// TryRecv instead of wedging the barrier.
func (c *Ctx[T]) TryRecv(from int) (T, bool) {
	c.boundary()
	return c.recvFrom(from, true)
}

// TryExchange sends v to neighbor partner and attempts to receive partner's
// message of the same cycle — the fault-tolerant form of Exchange, one clock
// cycle. ok is false when the link is permanently down (nothing was sent or
// received) or when the partner's message was dropped or delayed in flight.
func (c *Ctx[T]) TryExchange(partner int, v T) (T, bool) {
	c.send(partner, v, true)
	c.boundary()
	return c.recvFrom(partner, true)
}

// step is the single clock-cycle primitive: at most one send, at most two
// receives, one clock boundary. All other methods delegate here. The
// Exchange shape (send and first receive on the same link) resolves the
// neighbor's CSR index once and reuses it on both sides of the boundary.
func (c *Ctx[T]) step(sendTo int, v T, recv1, recv2 int) (T, T) {
	ex := -1
	if sendTo != NoNode {
		if sendTo == recv1 {
			ex = c.linkIdx(sendTo)
			c.sendAt(ex, sendTo, v, false)
		} else {
			c.send(sendTo, v, false)
		}
	}
	if recv1 != NoNode && recv1 == recv2 {
		c.failf("node %d: duplicate receive from %d in one cycle", c.id, recv1)
	}
	c.boundary()
	var r1, r2 T
	if recv1 != NoNode {
		if ex >= 0 {
			r1, _ = c.recvAt(ex, recv1, false)
		} else {
			r1 = c.recvNow(recv1)
		}
	}
	if recv2 != NoNode {
		r2 = c.recvNow(recv2)
	}
	return r1, r2
}

// exchangeAt is Exchange with the partner's CSR index already resolved (the
// schedule interpreter's table-accelerated path): same send, boundary and
// receive as step, with no neighbor search. With no fault spec armed, plain
// (non-atomic) links and no send hook, the whole matched exchange is fused
// into one body so the per-side fault and atomics branches of sendAt/recvAt
// are checked once instead of eight times; counters, clock and failure
// messages are identical to the general path.
func (c *Ctx[T]) exchangeAt(i, partner int, v T) T {
	e := c.engine
	if e.fx == nil && !e.atomicLinks && e.onSend == nil {
		s := int(e.offs[c.id]) + i
		tail, head := e.tails[s], e.heads[s]
		if tail-head >= e.ringCap {
			c.failf("node %d: link %d->%d buffer overflow (capacity %d)", c.id, c.id, partner, e.cfg.LinkCapacity)
		}
		e.buf[uint32(s)*e.ringSize+tail&e.ringMask] = v
		e.tails[s] = tail + 1
		c.msgs++
		if c.worker != nil {
			c.worker.sent = true
		} else {
			e.anySent.Store(true)
		}
		c.boundary()
		rs := int(e.inSlot[s])
		rhead, rtail := e.heads[rs], e.tails[rs]
		if rtail == rhead {
			c.failf("node %d: receive from %d on an empty link", c.id, partner)
		}
		idx := uint32(rs)*e.ringSize + rhead&e.ringMask
		r := e.buf[idx]
		var zero T
		e.buf[idx] = zero
		e.heads[rs] = rhead + 1
		return r
	}
	c.sendAt(i, partner, v, false)
	c.boundary()
	r, _ := c.recvAt(i, partner, false)
	return r
}

// linkIdx resolves neighbor peer to its position in this node's CSR row,
// aborting the run if peer is not adjacent.
func (c *Ctx[T]) linkIdx(peer int) int {
	i := c.engine.idxOf(c.id, peer)
	if i < 0 {
		c.failf("node %d: send to %d, which is not a neighbor", c.id, peer)
	}
	return i
}

// send posts v on the directed link to neighbor `to`. try selects the
// fault-tolerant contract: a send on a permanently failed link reports false
// instead of aborting the run. With no fault spec armed the fault block is a
// single nil check.
func (c *Ctx[T]) send(to int, v T, try bool) bool {
	return c.sendAt(c.linkIdx(to), to, v, try)
}

// sendAt is send with the neighbor's CSR index already resolved.
func (c *Ctx[T]) sendAt(i, to int, v T, try bool) bool {
	e := c.engine
	s := int(e.offs[c.id]) + i
	delay := 0
	if fx := e.fx; fx != nil {
		if fx.down[s] {
			c.refused++
			if !try {
				c.failf("node %d: send to %d on a failed link", c.id, to)
			}
			return false
		}
		if fx.spec.Drop != nil && fx.spec.Drop(c.id, to, c.cycle) {
			// The message entered the wire and was lost: the port and the
			// hop are spent, but nothing reaches the receiver's buffer.
			c.dropped++
			c.msgs++
			if c.worker != nil {
				c.worker.sent = true
			} else {
				e.anySent.Store(true)
			}
			return true
		}
		if fx.spec.Delay != nil {
			if delay = fx.spec.Delay(c.id, to, c.cycle); delay < 0 {
				delay = 0
			}
			if delay > 0 {
				c.delayed++
			}
		}
	}
	tail := e.tails[s] // producer-owned cursor: plain read is always safe
	var head uint32
	if e.atomicLinks {
		head = atomic.LoadUint32(&e.heads[s])
	} else {
		head = e.heads[s]
	}
	if tail-head >= e.ringCap {
		c.failf("node %d: link %d->%d buffer overflow (capacity %d)", c.id, c.id, to, e.cfg.LinkCapacity)
	}
	idx := uint32(s)*e.ringSize + tail&e.ringMask
	e.buf[idx] = v
	if fx := e.fx; fx != nil && fx.stamps != nil {
		// Written before the tail store, read by the consumer only after it
		// observes the new tail — the same release/acquire protocol as buf.
		fx.stamps[idx] = uint32(c.cycle + delay)
	}
	if e.atomicLinks {
		atomic.StoreUint32(&e.tails[s], tail+1)
	} else {
		e.tails[s] = tail + 1
	}
	c.msgs++
	if c.worker != nil {
		c.worker.sent = true
	} else {
		e.anySent.Store(true)
	}
	if e.onSend != nil {
		e.onSend(c, to)
	}
	return true
}

// boundary is the clock edge: park until every node has finished the cycle.
func (c *Ctx[T]) boundary() {
	e := c.engine
	if c.yield != nil {
		if !c.yield(false) || e.state == roundAbort {
			// A false return means the engine is being torn down with this
			// program still live; roundAbort is the barrier leader routing
			// every worker into the drain pass after a recorded failure.
			panic(abortPanic{ErrAborted})
		}
	} else if err := e.bar.Wait(); err != nil {
		panic(abortPanic{err})
	}
	c.cycle++
}

// recvNow pops the oldest pending message on the link from -> id. It never
// blocks: by the time the clock boundary has released us, every message of
// the current cycle has been posted, so an empty link is a protocol error.
func (c *Ctx[T]) recvNow(from int) T {
	v, _ := c.recvFrom(from, false)
	return v
}

// recvFrom pops the oldest visible message on the link from -> id. try
// selects the fault-tolerant contract: an empty link — or one whose head
// message is still delayed in flight — reports ok = false instead of
// aborting the run. The incoming slot is read from the precomputed inSlot
// table; no adjacency scan happens here.
func (c *Ctx[T]) recvFrom(from int, try bool) (T, bool) {
	e := c.engine
	i := e.idxOf(c.id, from)
	if i < 0 {
		c.failf("node %d: receive from %d, which is not a neighbor", c.id, from)
	}
	return c.recvAt(i, from, try)
}

// recvAt is recvFrom with the neighbor's CSR index already resolved.
func (c *Ctx[T]) recvAt(i, from int, try bool) (T, bool) {
	e := c.engine
	s := int(e.inSlot[int(e.offs[c.id])+i])
	head := e.heads[s] // consumer-owned cursor: plain read is always safe
	var tail uint32
	if e.atomicLinks {
		tail = atomic.LoadUint32(&e.tails[s])
	} else {
		tail = e.tails[s]
	}
	idx := uint32(s)*e.ringSize + head&e.ringMask
	if tail == head || !c.visible(idx) {
		if try {
			var zero T
			return zero, false
		}
		c.failf("node %d: receive from %d on an empty link", c.id, from)
	}
	v := e.buf[idx]
	var zero T
	e.buf[idx] = zero // release references held by the buffered element
	if e.atomicLinks {
		atomic.StoreUint32(&e.heads[s], head+1)
	} else {
		e.heads[s] = head + 1
	}
	return v, true
}

// visible reports whether the buffered message at idx has cleared its
// injected latency: messages are stamped with send cycle + delay and become
// receivable strictly after that cycle, which for an undelayed message is
// the same cycle it was sent in (the receiver's clock has already advanced
// past the boundary).
func (c *Ctx[T]) visible(idx uint32) bool {
	fx := c.engine.fx
	return fx == nil || fx.stamps == nil || fx.stamps[idx] < uint32(c.cycle)
}

// failf aborts the whole run with a formatted protocol error and unwinds
// this node's program.
func (c *Ctx[T]) failf(format string, args ...any) {
	err := fmt.Errorf("machine: "+format, args...)
	c.engine.fail(err)
	panic(abortPanic{err})
}
