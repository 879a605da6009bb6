package prefix

import (
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// This file expresses Algorithm 2 as a machine.DirectKernel, the form both
// execution paths share: the direct executor runs it as array kernels over
// the flat per-node state below, and the simulator engine runs the very
// same kernel value through its schedule interpreter — so DPrefix, the
// degraded variant and the recorded variant are one algorithm with three
// run modes, and the Stats/output parity between them is structural rather
// than re-implemented.
//
// Step indices map onto the compiled prefix schedule (m = ClusterDim):
// steps 0..m-1 are the in-cluster ascend of step 1, step m the cross-edge
// total exchange of step 2, steps m+1..2m the ascend of the received totals
// (step 3), step 2m+1 the cross-edge prefix exchange of step 4, and the
// final StepLocalCombine is the class-1 fold of step 5.

// prefixKernel is Algorithm 2 over one element per node. The prefix
// variable s lives directly in out[idx] (written progressively, final on
// completion); t carries the block total and, after the first cross hop,
// the received totals t'; s2 is the diminished prefix of those totals s'.
// snap is the Figure 3 phase-snapshot hook of DPrefix's tracing mode, nil
// when untraced, so an untraced run makes no call through it. node
// is the order's node table (topology.Tables): the kernel body reads every
// node's data index, local ID and class from it.
type prefixKernel[T any] struct {
	node      []topology.NodeRole
	m         monoid.Monoid[T]
	mdim      int
	inclusive bool
	in        []T
	out       []T // indexed by element; doubles as the prefix variable s
	t         []T // indexed by node: block total, then received totals t'
	s2        []T // indexed by node: diminished prefix of received totals s'
	snap      func(i, idx int, s, t T)
}

func newPrefixKernel[T any](d topology.Comm, m monoid.Monoid[T], inclusive bool, in, out []T, snap func(i, idx int, s, t T)) *prefixKernel[T] {
	n := d.Nodes()
	state := make([]T, 2*n)
	return &prefixKernel[T]{
		node: d.Tables().Node, m: m, mdim: d.ClusterDim(), inclusive: inclusive,
		in: in, out: out,
		t:    state[:n:n],
		s2:   state[n:],
		snap: snap,
	}
}

func (pk *prefixKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, T) {
	idx := int(pk.node[u].Data)
	if k == 0 {
		v := pk.in[idx]
		pk.t[u] = v
		if pk.inclusive {
			pk.out[idx] = v
		} else {
			pk.out[idx] = pk.m.Identity()
		}
		if pk.snap != nil {
			pk.snap(0, idx, v, v)
		}
	}
	switch {
	case k == pk.mdim: // step 2: exchange the block total t
		if pk.snap != nil {
			pk.snap(1, idx, pk.out[idx], pk.t[u])
		}
		return machine.DirectExchange, pk.t[u]
	case k == 2*pk.mdim+1: // step 4: exchange the prefixed totals s'
		if pk.snap != nil {
			pk.snap(3, idx, pk.s2[u], pk.t[u])
		}
		return machine.DirectExchange, pk.s2[u]
	default: // ascend rounds exchange the running total
		return machine.DirectExchange, pk.t[u]
	}
}

func (pk *prefixKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v T) {
	m := pk.m
	nd := pk.node[u]
	idx, local := int(nd.Data), int(nd.Local)
	switch {
	case k < pk.mdim:
		// Step 1 ascend: fold the received half into t and, in the upper
		// half, into s — strictly lower-half-first for non-commutativity.
		if local&(1<<k) != 0 {
			pk.out[idx] = m.Combine(v, pk.out[idx])
			pk.t[u] = m.Combine(v, pk.t[u])
		} else {
			pk.t[u] = m.Combine(pk.t[u], v)
		}
		dc.Ops(1)
	case k == pk.mdim:
		// Step 2: the received block total becomes t', s' starts empty.
		if pk.snap != nil {
			pk.snap(2, idx, pk.out[idx], v)
		}
		pk.t[u] = v
		pk.s2[u] = m.Identity()
	case k <= 2*pk.mdim:
		// Step 3 ascend of the received totals, diminished.
		if i := k - pk.mdim - 1; local&(1<<i) != 0 {
			pk.s2[u] = m.Combine(v, pk.s2[u])
			pk.t[u] = m.Combine(v, pk.t[u])
		} else {
			pk.t[u] = m.Combine(pk.t[u], v)
		}
		dc.Ops(1)
	default:
		// Step 4: fold the partner's s' — the combined earlier-block totals
		// of this node's own class half — into the prefix.
		pk.out[idx] = m.Combine(v, pk.out[idx])
		dc.Ops(1)
		if pk.snap != nil {
			pk.snap(4, idx, pk.out[idx], pk.t[u])
		}
	}
}

func (pk *prefixKernel[T]) Local(dc *machine.DirectCtx, k, u int) {
	nd := pk.node[u]
	idx := int(nd.Data)
	if nd.Class == 1 {
		// Step 5: class-1 blocks come after all class-0 blocks, so prepend
		// the class-0 grand total (this node's t').
		pk.out[idx] = pk.m.Combine(pk.t[u], pk.out[idx])
		dc.Ops(1)
	}
	if pk.snap != nil {
		pk.snap(5, idx, pk.out[idx], pk.t[u])
	}
}

// largeKernel is DPrefixLarge's variant: chunks of `chunk` elements per
// node. The local chunk scans live directly in the out rows (written by the
// first Produce, offset-folded in Local), the schedule walk is the same
// diminished Algorithm 2 over the chunk totals with s kept per node.
type largeKernel[T any] struct {
	node      []topology.NodeRole
	m         monoid.Monoid[T]
	mdim      int
	chunk     int
	inclusive bool
	in        []T
	out       []T // chunk scans, then final results, row idx*chunk..(idx+1)*chunk
	t         []T // chunk total, then received totals t'
	s         []T // diminished prefix of the chunk totals
	s2        []T // diminished prefix of received totals s'
}

func newLargeKernel[T any](d topology.Comm, m monoid.Monoid[T], chunk int, inclusive bool, in, out []T) *largeKernel[T] {
	n := d.Nodes()
	return &largeKernel[T]{
		node: d.Tables().Node, m: m, mdim: d.ClusterDim(), chunk: chunk, inclusive: inclusive,
		in: in, out: out,
		t: make([]T, n), s: make([]T, n), s2: make([]T, n),
	}
}

func (lk *largeKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, T) {
	if k == 0 {
		idx := int(lk.node[u].Data)
		cin := lk.in[idx*lk.chunk : (idx+1)*lk.chunk]
		scan := lk.out[idx*lk.chunk:][:len(cin)]
		acc := lk.m.Identity()
		for i, v := range cin {
			if lk.inclusive {
				acc = lk.m.Combine(acc, v)
				scan[i] = acc
			} else {
				scan[i] = acc
				acc = lk.m.Combine(acc, v)
			}
		}
		lk.t[u] = acc
		lk.s[u] = lk.m.Identity()
		dc.Ops(lk.chunk - 1)
	}
	if k == 2*lk.mdim+1 {
		return machine.DirectExchange, lk.s2[u]
	}
	return machine.DirectExchange, lk.t[u]
}

func (lk *largeKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v T) {
	m := lk.m
	local := int(lk.node[u].Local)
	switch {
	case k < lk.mdim:
		if local&(1<<k) != 0 {
			lk.s[u] = m.Combine(v, lk.s[u])
			lk.t[u] = m.Combine(v, lk.t[u])
		} else {
			lk.t[u] = m.Combine(lk.t[u], v)
		}
		dc.Ops(1)
	case k == lk.mdim:
		lk.t[u] = v
		lk.s2[u] = m.Identity()
	case k <= 2*lk.mdim:
		if i := k - lk.mdim - 1; local&(1<<i) != 0 {
			lk.s2[u] = m.Combine(v, lk.s2[u])
			lk.t[u] = m.Combine(v, lk.t[u])
		} else {
			lk.t[u] = m.Combine(lk.t[u], v)
		}
		dc.Ops(1)
	default:
		lk.s[u] = m.Combine(v, lk.s[u])
		dc.Ops(1)
	}
}

func (lk *largeKernel[T]) Local(dc *machine.DirectCtx, k, u int) {
	nd := lk.node[u]
	if nd.Class == 1 {
		lk.s[u] = lk.m.Combine(lk.t[u], lk.s[u])
		dc.Ops(1)
	}
	// Fold the global offset into the local scan. The offset load is
	// hoisted so the loop body carries no bounds check.
	idx := int(nd.Data)
	off := lk.s[u]
	res := lk.out[idx*lk.chunk : (idx+1)*lk.chunk]
	for i := range res {
		res[i] = lk.m.Combine(off, res[i])
	}
	dc.Ops(lk.chunk)
}
