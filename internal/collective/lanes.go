package collective

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// This file holds the batched (k-lane) counterparts of the all-reduce and
// broadcast kernels, the shapes the serving front-end coalesces compatible
// requests into. Each lane computes exactly what the single-lane kernel
// computes — the combine order per lane mirrors allReduceKernel and
// broadcastKernel statement for statement — while the schedule walk and the
// per-step role logic are paid once for all lanes. Broadcast lanes must
// share one root: the flood's send/receive roles depend on the root, and a
// batched step has a single role per node.

// laneAllReduceKernel is allReduceKernel over k-wide rows.
type laneAllReduceKernel[E any] struct {
	node  []topology.NodeRole
	m     monoid.Monoid[E]
	mdim  int
	k     int
	lanes *machine.Lanes[E]
	out   []E   // node-major k-wide: the own-class grand total parking slot
	t     []E   // node-major k-wide: running totals
	res   [][]E // k result vectors (per node, all equal), element order
}

// NewLaneAllReduceKernel builds the batched all-reduce kernel: lane l
// combines in[l] in element order and delivers the total to every slot of
// res[l]. lanes must be at least len(in) wide.
func NewLaneAllReduceKernel[E any](c topology.Comm, m monoid.Monoid[E], lanes *machine.Lanes[E], in, res [][]E) machine.DirectKernel[[]E] {
	n := c.Nodes()
	k := len(in)
	node := c.Tables().Node
	state := make([]E, 2*n*k)
	t := state[n*k:]
	// Each lane's running total starts as the node's own element.
	for u, nd := range node {
		for l, x := range in {
			t[u*k+l] = x[nd.Data]
		}
	}
	return &laneAllReduceKernel[E]{
		node: node, m: m, mdim: c.ClusterDim(), k: k,
		lanes: lanes, res: res,
		out: state[: n*k : n*k],
		t:   t,
	}
}

func (ak *laneAllReduceKernel[E]) Produce(dc *machine.DirectCtx, step, u int) (machine.DirectRole, []E) {
	k := ak.k
	row := ak.lanes.Row(step, u)[:k]
	copy(row, ak.t[u*k:(u+1)*k])
	return machine.DirectExchange, row
}

func (ak *laneAllReduceKernel[E]) Absorb(dc *machine.DirectCtx, step, u int, v []E) {
	m := &ak.m
	k := ak.k
	local := int(ak.node[u].Local)
	// Re-slice the rows to length k up front so every in-loop index is
	// bounds-check-free (the escgate budget pins this at zero).
	t := ak.t[u*k:][:k]
	v = v[:k]
	switch {
	case step < ak.mdim:
		if local&(1<<step) != 0 {
			for l := 0; l < k; l++ {
				t[l] = m.Combine(v[l], t[l])
			}
		} else {
			for l := 0; l < k; l++ {
				t[l] = m.Combine(t[l], v[l])
			}
		}
		dc.Ops(1)
	case step == ak.mdim:
		// Cross totals; all-reduce them in cluster-index order next.
		copy(t, v)
	case step <= 2*ak.mdim:
		if i := step - ak.mdim - 1; local&(1<<i) != 0 {
			for l := 0; l < k; l++ {
				t[l] = m.Combine(v[l], t[l])
			}
		} else {
			for l := 0; l < k; l++ {
				t[l] = m.Combine(t[l], v[l])
			}
		}
		dc.Ops(1)
	default:
		// t is now the grand total of the OTHER class; v is this node's own
		// class total, swapped back over the cross-edge.
		copy(ak.out[u*k:(u+1)*k], v)
	}
}

func (ak *laneAllReduceKernel[E]) Local(dc *machine.DirectCtx, step, u int) {
	k := ak.k
	nd := ak.node[u]
	idx := nd.Data
	t := ak.t[u*k : (u+1)*k]
	out := ak.out[u*k : (u+1)*k]
	res := ak.res[:k]
	if nd.Class == 0 {
		for l := 0; l < k; l++ {
			res[l][idx] = ak.m.Combine(out[l], t[l])
		}
	} else {
		for l := 0; l < k; l++ {
			res[l][idx] = ak.m.Combine(t[l], out[l])
		}
	}
	dc.Ops(1)
}

// LaneBroadcastKernel is broadcastKernel over k-wide rows: k values flooded
// from one shared root. Verify must be called after the run.
type LaneBroadcastKernel[E any] struct {
	node        []topology.NodeRole
	mdim        int
	k           int
	root        topology.NodeID
	rootClass   int
	rootCluster int
	rootLocal   int
	lanes       *machine.Lanes[E]
	val         []E // node-major k-wide: the lane values held by each node
	have        []bool
}

// NewLaneBroadcastKernel builds the batched broadcast kernel delivering
// values[l] from root to every node on lane l. The caller has validated
// root; lanes must be at least len(values) wide.
func NewLaneBroadcastKernel[E any](c topology.Comm, root topology.NodeID, lanes *machine.Lanes[E], values []E) *LaneBroadcastKernel[E] {
	n := c.Nodes()
	k := len(values)
	node := c.Tables().Node
	r := node[root]
	bk := &LaneBroadcastKernel[E]{
		node: node, mdim: c.ClusterDim(), k: k, root: root,
		rootClass: int(r.Class), rootCluster: int(r.Cluster), rootLocal: int(r.Local),
		lanes: lanes,
		val:   make([]E, n*k),
		have:  make([]bool, n),
	}
	bk.have[root] = true
	copy(bk.val[root*k:(root+1)*k], values)
	return bk
}

func (bk *LaneBroadcastKernel[E]) role(step, u int) machine.DirectRole {
	nd := bk.node[u]
	class, cluster, local := int(nd.Class), int(nd.Cluster), int(nd.Local)
	have := bk.have[u]
	switch {
	case step < bk.mdim:
		// Phase 1: flood root's cluster (see broadcastKernel).
		if class == bk.rootClass && cluster == bk.rootCluster {
			i := step
			mask := ^((1 << (i + 1)) - 1)
			if have && local&(1<<i) == bk.rootLocal&(1<<i) {
				return machine.DirectSend
			} else if !have && local&mask == bk.rootLocal&mask {
				return machine.DirectRecv
			}
		}
	case step == bk.mdim:
		// Phase 2: root's cluster crosses over.
		if class == bk.rootClass && cluster == bk.rootCluster {
			return machine.DirectSend
		} else if class != bk.rootClass && local == bk.rootCluster {
			return machine.DirectRecv
		}
	case step <= 2*bk.mdim:
		// Phase 3: flood every cluster of the other class from its seed.
		if class != bk.rootClass {
			i := step - bk.mdim - 1
			seedLocal := bk.rootCluster
			mask := ^((1 << (i + 1)) - 1)
			if have && local&(1<<i) == seedLocal&(1<<i) {
				return machine.DirectSend
			} else if !have && local&mask == seedLocal&mask {
				return machine.DirectRecv
			}
		}
	default:
		// Phase 4: the other class crosses back.
		if class != bk.rootClass {
			return machine.DirectSend
		}
		return machine.DirectRecv
	}
	return machine.DirectIdle
}

func (bk *LaneBroadcastKernel[E]) Produce(dc *machine.DirectCtx, step, u int) (machine.DirectRole, []E) {
	role := bk.role(step, u)
	row := bk.lanes.Row(step, u)[:bk.k]
	if role == machine.DirectSend || role == machine.DirectExchange {
		copy(row, bk.val[u*bk.k:(u+1)*bk.k])
	}
	return role, row
}

func (bk *LaneBroadcastKernel[E]) Absorb(dc *machine.DirectCtx, step, u int, v []E) {
	if !bk.have[u] {
		copy(bk.val[u*bk.k:(u+1)*bk.k], v)
		bk.have[u] = true
	}
}

func (bk *LaneBroadcastKernel[E]) Local(dc *machine.DirectCtx, step, u int) {}

// Verify reports an error if any node missed the flood — the same
// post-condition the single-lane Broadcast host checks.
func (bk *LaneBroadcastKernel[E]) Verify() error {
	for u, ok := range bk.have {
		if !ok {
			return fmt.Errorf("collective: node %d did not receive the broadcast", u)
		}
	}
	return nil
}

// Value returns the delivered lane values as seen by node u.
func (bk *LaneBroadcastKernel[E]) Value(u int) []E {
	return bk.val[u*bk.k : (u+1)*bk.k]
}
