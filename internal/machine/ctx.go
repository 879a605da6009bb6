package machine

import "fmt"

// ctx is a node's handle onto the engine: its identity, its links and the
// global clock. Every method that communicates advances the clock by
// exactly one cycle on this node; the SPMD discipline is that all nodes
// advance together, so a node with nothing to do in a cycle calls Idle.
type ctx[T any] struct {
	engine *engine[T]
	id     int
	ops    int
	cycle  int   // this node's local clock (== global clock under lockstep)
	msgs   int64 // messages sent by this node, merged into Stats at run end

	// yield is the clock boundary: it parks this node's coroutine until the
	// engine's next pass resumes it.
	yield func(unit) bool

	// dctx is the node's DirectCtx under kernelProgram. Keeping it inside
	// the node context lets the interpreter hand kernels a *DirectCtx
	// without a heap allocation per node.
	dctx DirectCtx
}

// ID returns this node's ID.
func (c *ctx[T]) ID() int { return c.id }

// Ops adds k computation rounds to this node's account. The paper counts
// one computation step per parallel round of ⊕ / comparison work; programs
// call Ops(1) once per such round.
func (c *ctx[T]) Ops(k int) { c.ops += k }

// Cycle returns this node's local clock: the number of completed cycles,
// which equals the global clock under the SPMD lockstep discipline.
func (c *ctx[T]) Cycle() int { return c.cycle }

// Idle spends one clock cycle without communicating.
func (c *ctx[T]) Idle() {
	var zero T
	c.step(noNode, zero, noNode, noNode)
}

// Exchange sends v to partner and receives partner's message of the same
// cycle — the paper's elementary bidirectional-link exchange. partner must
// be a neighbor that performs the mirror Exchange.
func (c *ctx[T]) Exchange(partner int, v T) T {
	r, _ := c.step(partner, v, partner, noNode)
	return r
}

// Send transmits v to neighbor `to` and spends the cycle (no receive).
func (c *ctx[T]) Send(to int, v T) {
	c.step(to, v, noNode, noNode)
}

// Recv spends one cycle receiving the pending message from neighbor `from`.
// The message may have been sent this cycle or buffered from an earlier one.
func (c *ctx[T]) Recv(from int) T {
	r, _ := c.step(noNode, *new(T), from, noNode)
	return r
}

// SendRecv sends v to neighbor `to` and receives from neighbor `from` in
// the same cycle (the two may be different links, or the same link — in
// which case it degenerates to Exchange).
func (c *ctx[T]) SendRecv(to int, v T, from int) T {
	r, _ := c.step(to, v, from, noNode)
	return r
}

// SendRecv2 sends v to neighbor `to` and receives from the two distinct
// links `from1` and `from2` in the same cycle. This is the full-duplex
// bidirectional-channel allowance the three-time-unit compare-and-exchange
// step of Section 6 relies on.
func (c *ctx[T]) SendRecv2(to int, v T, from1, from2 int) (T, T) {
	return c.step(to, v, from1, from2)
}

// step is the single clock-cycle primitive: at most one send, at most two
// receives, one clock boundary. All other methods delegate here. The
// Exchange shape (send and first receive on the same link) resolves the
// neighbor's CSR index once and reuses it on both sides of the boundary.
func (c *ctx[T]) step(sendTo int, v T, recv1, recv2 int) (T, T) {
	ex := -1
	if sendTo != noNode {
		i := c.linkIdx(sendTo)
		c.sendAt(i, sendTo, v)
		if sendTo == recv1 {
			ex = i
		}
	}
	if recv1 != noNode && recv1 == recv2 {
		c.failf("node %d: duplicate receive from %d in one cycle", c.id, recv1)
	}
	c.boundary()
	var r1, r2 T
	if recv1 != noNode {
		if ex >= 0 {
			r1 = c.recvAt(ex, recv1)
		} else {
			r1 = c.recvFrom(recv1)
		}
	}
	if recv2 != noNode {
		r2 = c.recvFrom(recv2)
	}
	return r1, r2
}

// exchangeAt is Exchange with the partner's CSR index already resolved (the
// schedule interpreter's table-accelerated path): same send, boundary and
// receive as step, with no neighbor search.
func (c *ctx[T]) exchangeAt(i, partner int, v T) T {
	c.sendAt(i, partner, v)
	c.boundary()
	return c.recvAt(i, partner)
}

// linkIdx resolves neighbor peer to its position in this node's CSR row,
// aborting the run if peer is not adjacent.
func (c *ctx[T]) linkIdx(peer int) int {
	i := c.engine.idxOf(c.id, peer)
	if i < 0 {
		c.failf("node %d: send to %d, which is not a neighbor", c.id, peer)
	}
	return i
}

// sendAt posts v on the directed link to neighbor `to`, the i-th entry of
// this node's CSR row. A send on a link the armed fault plan failed aborts
// the run; with no fault spec armed that check is a single nil test.
func (c *ctx[T]) sendAt(i, to int, v T) {
	e := c.engine
	s := int(e.offs[c.id]) + i
	if fx := e.fx; fx != nil && fx.down[s] {
		c.failf("node %d: send to %d on a failed link", c.id, to)
	}
	tail, head := e.tails[s], e.heads[s]
	if tail-head >= e.ringCap {
		c.failf("node %d: link %d->%d buffer overflow (capacity %d)", c.id, c.id, to, e.ringCap)
	}
	idx := uint32(s)*linkCapacity + tail%linkCapacity
	e.buf[idx] = v
	e.tails[s] = tail + 1
	c.msgs++
	e.sent = true
	if e.onSend != nil {
		e.onSend(c, to)
	}
}

// boundary is the clock edge: park until every node has finished the cycle.
func (c *ctx[T]) boundary() {
	c.yield(unit{})
	if c.engine.state == roundAbort {
		// The per-cycle accounting routes the run into the drain pass after
		// a recorded failure.
		panic(abortPanic{errAborted})
	}
	c.cycle++
}

// recvFrom pops the oldest pending message on the link from -> id. It never
// blocks: by the time the clock boundary has released us, every message of
// the current cycle has been posted, so an empty link is a protocol error.
// The incoming slot is read from the precomputed inSlot table; no adjacency
// scan happens here.
func (c *ctx[T]) recvFrom(from int) T {
	i := c.engine.idxOf(c.id, from)
	if i < 0 {
		c.failf("node %d: receive from %d, which is not a neighbor", c.id, from)
	}
	return c.recvAt(i, from)
}

// recvAt is recvFrom with the neighbor's CSR index already resolved.
func (c *ctx[T]) recvAt(i, from int) T {
	e := c.engine
	s := int(e.inSlot[int(e.offs[c.id])+i])
	head, tail := e.heads[s], e.tails[s]
	if tail == head {
		c.failf("node %d: receive from %d on an empty link", c.id, from)
	}
	idx := uint32(s)*linkCapacity + head%linkCapacity
	v := e.buf[idx]
	var zero T
	e.buf[idx] = zero // release references held by the buffered element
	e.heads[s] = head + 1
	return v
}

// failf aborts the whole run with a formatted protocol error and unwinds
// this node's program.
func (c *ctx[T]) failf(format string, args ...any) {
	err := fmt.Errorf("machine: "+format, args...)
	c.engine.fail(err)
	panic(abortPanic{err})
}
