package prefix

import (
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// This file is the batched counterpart of kernel.go: Algorithm 2 widened to
// k independent lanes per node, the kernel shape the serving front-end's
// request coalescing runs. Lane l computes exactly the prefix DPrefix would
// compute for in[l] — the combine order per lane is identical statement for
// statement with prefixKernel, so a batched pass is byte-identical to k
// unbatched passes (the lanes differential tests enforce it) — but the
// schedule walk, the partner-table lookups and the per-step protocol
// bookkeeping are paid once for all k lanes, which is where the batching
// throughput win comes from.

// lanePrefixKernel is prefixKernel over k-wide rows. The per-node state
// arrays s, t and s2 hold k lanes contiguously (node u's lanes at u*k..);
// outgoing payloads are staged in the machine.Lanes plane per the parity
// discipline documented there. Unlike the single-lane kernel, whose prefix
// variable lives directly in out, the lane kernel accumulates the prefix in
// the flat node-major s and scatters it to the per-lane out vectors once in
// Local — keeping the Absorb inner loops on flat k-wide rows the compiler
// can bounds-check-eliminate (the escgate budget pins them at zero).
type lanePrefixKernel[E any] struct {
	node      []topology.NodeRole
	m         monoid.Monoid[E]
	mdim      int
	k         int
	inclusive bool
	lanes     *machine.Lanes[E]
	in        [][]E // k input vectors, element order
	out       [][]E // k result vectors, element order
	s         []E   // node-major k-wide: the running prefix variable s
	t         []E   // node-major k-wide: block total, then received totals t'
	s2        []E   // node-major k-wide: diminished prefix of received totals s'
}

// NewLaneKernel builds the batched prefix kernel: lane l computes the
// inclusive (or diminished) prefix of in[l] into out[l], each of which must
// hold one element per node of c. lanes must be at least len(in) wide.
func NewLaneKernel[E any](c topology.Comm, m monoid.Monoid[E], inclusive bool, lanes *machine.Lanes[E], in, out [][]E) machine.DirectKernel[[]E] {
	n := c.Nodes()
	k := len(in)
	state := make([]E, 3*n*k)
	return &lanePrefixKernel[E]{
		node: c.Tables().Node, m: m, mdim: c.ClusterDim(), k: k, inclusive: inclusive,
		lanes: lanes, in: in, out: out,
		s:  state[: n*k : n*k],
		t:  state[n*k : 2*n*k : 2*n*k],
		s2: state[2*n*k:],
	}
}

func (pk *lanePrefixKernel[E]) Produce(dc *machine.DirectCtx, step, u int) (machine.DirectRole, []E) {
	k := pk.k
	t := pk.t[u*k : (u+1)*k]
	if step == 0 {
		idx := int(pk.node[u].Data)
		s := pk.s[u*k : (u+1)*k]
		for l := 0; l < k; l++ {
			v := pk.in[l][idx]
			t[l] = v
			if pk.inclusive {
				s[l] = v
			} else {
				s[l] = pk.m.Identity()
			}
		}
	}
	row := pk.lanes.Row(step, u)[:k]
	if step == 2*pk.mdim+1 { // step 4: exchange the prefixed totals s'
		copy(row, pk.s2[u*k:(u+1)*k])
	} else { // ascend rounds and the step-2 cross hop exchange the totals
		copy(row, t)
	}
	return machine.DirectExchange, row
}

func (pk *lanePrefixKernel[E]) Absorb(dc *machine.DirectCtx, step, u int, v []E) {
	m := &pk.m
	k := pk.k
	local := int(pk.node[u].Local)
	t := pk.t[u*k:][:k]
	v = v[:k]
	switch {
	case step < pk.mdim:
		// Step 1 ascend: fold the received half into t and, in the upper
		// half, into s — strictly lower-half-first for non-commutativity.
		if local&(1<<step) != 0 {
			s := pk.s[u*k:][:k]
			for l := 0; l < k; l++ {
				s[l] = m.Combine(v[l], s[l])
				t[l] = m.Combine(v[l], t[l])
			}
		} else {
			for l := 0; l < k; l++ {
				t[l] = m.Combine(t[l], v[l])
			}
		}
		dc.Ops(1)
	case step == pk.mdim:
		// Step 2: the received block total becomes t', s' starts empty.
		s2 := pk.s2[u*k:][:k]
		for l := 0; l < k; l++ {
			t[l] = v[l]
			s2[l] = m.Identity()
		}
	case step <= 2*pk.mdim:
		// Step 3 ascend of the received totals, diminished.
		if i := step - pk.mdim - 1; local&(1<<i) != 0 {
			s2 := pk.s2[u*k:][:k]
			for l := 0; l < k; l++ {
				s2[l] = m.Combine(v[l], s2[l])
				t[l] = m.Combine(v[l], t[l])
			}
		} else {
			for l := 0; l < k; l++ {
				t[l] = m.Combine(t[l], v[l])
			}
		}
		dc.Ops(1)
	default:
		// Step 4: fold the partner's s' into the prefix.
		s := pk.s[u*k:][:k]
		for l := 0; l < k; l++ {
			s[l] = m.Combine(v[l], s[l])
		}
		dc.Ops(1)
	}
}

func (pk *lanePrefixKernel[E]) Local(dc *machine.DirectCtx, step, u int) {
	k := pk.k
	nd := pk.node[u]
	idx := int(nd.Data)
	s := pk.s[u*k : (u+1)*k]
	if nd.Class == 1 {
		// Step 5: class-1 blocks come after all class-0 blocks, so prepend
		// the class-0 grand total (this node's t').
		t := pk.t[u*k : (u+1)*k]
		for l := 0; l < k; l++ {
			s[l] = pk.m.Combine(t[l], s[l])
		}
		dc.Ops(1)
	}
	// Scatter the finished prefixes to the per-lane result vectors — the
	// lane widening of the single-lane kernel's out-resident prefix.
	for l := 0; l < k; l++ {
		pk.out[l][idx] = s[l]
	}
}
