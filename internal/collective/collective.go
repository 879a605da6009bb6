// Package collective implements collective communication operations on the
// dual-cube using the paper's cluster technique (Section 3 and the authors'
// companion work on efficient collective communications in dual-cube, cited
// as reference [7]; developing such algorithms is future-work item 3).
//
// All operations follow the same four-phase skeleton that makes D_prefix
// optimal: work inside clusters (n-1 steps), hop the cross-edges (1 step),
// work inside the clusters of the other class (n-1 steps), hop back
// (1 step) — 2n communication steps in total, matching the diameter 2n of
// D_n, so each collective is asymptotically optimal.
//
// Each operation's skeleton is compiled once per order into a shared
// machine.Schedule (dcomm.Compiled) and the operation itself is a
// machine.DirectKernel: per step the kernel supplies each node's role (send,
// receive, exchange, idle) and payload, the schedule supplies the partner.
// dcomm.Execute routes every kernel — through the direct array executor by
// default, or through a simulator engine running the identical kernel when
// the caller's machine.Config (every entry point's first argument) names an
// engine scheduler — so both execution paths are one algorithm per
// operation. The second argument is the topology.Comm the operation runs
// on: D_n, or the odd hypercube or Z-cube that contains it.
package collective

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// Broadcast distributes value from node root to every node of c in 2n
// communication steps:
//
//  1. binomial-tree flood inside root's cluster (n-1 steps);
//  2. the whole cluster hops its cross-edges — because the cross-edges of
//     one cluster land in 2^(n-1) distinct clusters of the other class,
//     every opposite-class cluster now holds the value at exactly one node
//     (local index = root's cluster-mate position);
//  3. flood inside every cluster of the other class (n-1 steps);
//  4. one more cross-edge hop — the cross neighbors of the other class
//     cover every node of root's class — delivering the value everywhere.
//
// The flood uses only the cluster decomposition, so it runs unchanged on
// every Comm family. The returned slice is indexed by node ID.
func Broadcast[T any](cfg machine.Config, c topology.Comm, root topology.NodeID, value T) ([]T, machine.Stats, error) {
	if root < 0 || root >= c.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("collective: root %d out of range", root)
	}
	m := c.ClusterDim()
	sch, err := dcomm.Compiled(c, dcomm.OpBroadcast)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	node := c.Tables().Node
	r := node[root]

	out := make([]T, c.Nodes())
	bk := &broadcastKernel[T]{
		node: node, mdim: m, root: root,
		rootClass: int(r.Class), rootCluster: int(r.Cluster), rootLocal: int(r.Local),
		out: out, have: make([]bool, c.Nodes()),
	}
	bk.have[root] = true
	out[root] = value
	st, err := dcomm.Execute(sch, cfg, bk)
	if err != nil {
		return nil, st, err
	}
	for u := range bk.have {
		if !bk.have[u] {
			return nil, st, fmt.Errorf("collective: node %d did not receive the broadcast", u)
		}
	}
	return out, st, nil
}

// broadcastKernel is the binomial flood as a kernel. The value lives
// directly in out; have marks delivery so late duplicate receives (phase 4
// covers root's own cluster again, keeping the schedule uniform) are
// discarded, and the host verifies every node was reached after the run.
// node is the order's node table, the only topology the kernel body reads.
type broadcastKernel[T any] struct {
	node        []topology.NodeRole
	mdim        int
	root        topology.NodeID
	rootClass   int
	rootCluster int
	rootLocal   int
	out         []T
	have        []bool
}

func (bk *broadcastKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, T) {
	nd := bk.node[u]
	class, cluster, local := int(nd.Class), int(nd.Cluster), int(nd.Local)
	have := bk.have[u]
	switch {
	case k < bk.mdim:
		// Phase 1: flood root's cluster. At step i, holders are the nodes of
		// root's cluster whose local ID matches rootLocal on bits >= i; each
		// holder sends along dimension i to the node differing at bit i.
		if class == bk.rootClass && cluster == bk.rootCluster {
			i := k
			mask := ^((1 << (i + 1)) - 1) // bits above i
			if have && local&(1<<i) == bk.rootLocal&(1<<i) {
				return machine.DirectSend, bk.out[u]
			} else if !have && local&mask == bk.rootLocal&mask {
				return machine.DirectRecv, bk.out[u]
			}
		}
	case k == bk.mdim:
		// Phase 2: root's cluster crosses over. The cross image of root's
		// cluster is one node in every opposite-class cluster, namely the
		// node whose local ID equals root's cluster ID (the cross-edge
		// swaps the roles of the two address fields).
		if class == bk.rootClass && cluster == bk.rootCluster {
			return machine.DirectSend, bk.out[u]
		} else if class != bk.rootClass && local == bk.rootCluster {
			return machine.DirectRecv, bk.out[u]
		}
	case k <= 2*bk.mdim:
		// Phase 3: flood every cluster of the other class from its seed,
		// which sits at local index rootCluster in each of them.
		if class != bk.rootClass {
			i := k - bk.mdim - 1
			seedLocal := bk.rootCluster
			mask := ^((1 << (i + 1)) - 1)
			if have && local&(1<<i) == seedLocal&(1<<i) {
				return machine.DirectSend, bk.out[u]
			} else if !have && local&mask == seedLocal&mask {
				return machine.DirectRecv, bk.out[u]
			}
		}
	default:
		// Phase 4: the other class crosses back, covering every node of
		// root's class (including root's own cluster, which already has the
		// value — those sends are received and discarded).
		if class != bk.rootClass {
			return machine.DirectSend, bk.out[u]
		}
		return machine.DirectRecv, bk.out[u]
	}
	return machine.DirectIdle, bk.out[u]
}

func (bk *broadcastKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v T) {
	if !bk.have[u] {
		bk.out[u] = v
		bk.have[u] = true
	}
}

func (bk *broadcastKernel[T]) Local(dc *machine.DirectCtx, k, u int) {}

// AllReduce combines every node's value with ⊕ and delivers the total to
// all nodes in 2n communication steps: recursive-doubling all-reduce inside
// each cluster (n-1 steps), cross-edge exchange of the cluster totals
// (1 step), all-reduce of those totals inside the clusters of the other
// class — yielding the opposite class's grand total everywhere (n-1
// steps) — and a final cross-edge exchange so every node can combine both
// class totals (1 step).
//
// Values are combined in deterministic element order (class-0 elements
// before class-1, clusters in index order), so non-commutative monoids
// receive the in-order reduction of the block data layout.
func AllReduce[T any](cfg machine.Config, c topology.Comm, in []T, m monoid.Monoid[T]) ([]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}
	mdim := c.ClusterDim()
	sch, err := dcomm.Compiled(c, dcomm.OpAllReduce)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	node := c.Tables().Node
	out := make([]T, c.Nodes())
	t := make([]T, c.Nodes())
	// Ordered all-reduce within the cluster (order = local index, which is
	// element order within the block): each running total starts as the
	// node's own element.
	for u, nd := range node {
		t[u] = in[nd.Data]
	}
	ak := &allReduceKernel[T]{node: node, m: m, mdim: mdim, out: out, t: t}
	st, err := dcomm.Execute(sch, cfg, ak)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// allReduceKernel is the double recursive-doubling all-reduce as a kernel.
// t carries the in-cluster running total (seeded by the host with the
// node's own element), then (after the first cross hop) the other class's
// running total; the received grand total of this node's own class parks in
// out until the final class-order combine. node is the order's node table.
type allReduceKernel[T any] struct {
	node []topology.NodeRole
	m    monoid.Monoid[T]
	mdim int
	out  []T
	t    []T
}

func (ak *allReduceKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, T) {
	return machine.DirectExchange, ak.t[u]
}

func (ak *allReduceKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v T) {
	m := &ak.m
	local := int(ak.node[u].Local)
	switch {
	case k < ak.mdim:
		if local&(1<<k) != 0 {
			ak.t[u] = m.Combine(v, ak.t[u])
		} else {
			ak.t[u] = m.Combine(ak.t[u], v)
		}
		dc.Ops(1)
	case k == ak.mdim:
		// Cross totals; all-reduce them in cluster-index order next.
		ak.t[u] = v
	case k <= 2*ak.mdim:
		if i := k - ak.mdim - 1; local&(1<<i) != 0 {
			ak.t[u] = m.Combine(v, ak.t[u])
		} else {
			ak.t[u] = m.Combine(ak.t[u], v)
		}
		dc.Ops(1)
	default:
		// t is now the grand total of the OTHER class; v is the grand total
		// of this node's own class, swapped back over the cross-edge.
		ak.out[u] = v
	}
}

func (ak *allReduceKernel[T]) Local(dc *machine.DirectCtx, k, u int) {
	// At a class-0 node: t = total(class 1), out = total(class 0) — and the
	// mirror at class 1 — so both classes combine in class order.
	if ak.node[u].Class == 0 {
		ak.out[u] = ak.m.Combine(ak.out[u], ak.t[u])
	} else {
		ak.out[u] = ak.m.Combine(ak.t[u], ak.out[u])
	}
	dc.Ops(1)
}

// Barrier synchronizes all nodes: it completes only after every node has
// entered it. Implemented as an all-reduce of units; returns the machine
// statistics (2n communication steps).
func Barrier(cfg machine.Config, c topology.Comm) (machine.Stats, error) {
	in := make([]struct{}, c.Nodes())
	_, st, err := AllReduce(cfg, c, in, unitMonoid())
	return st, err
}

// unitMonoid is the trivial monoid Barrier reduces with.
func unitMonoid() monoid.Monoid[struct{}] {
	return monoid.Monoid[struct{}]{
		Name:     "unit",
		Identity: func() struct{} { return struct{}{} },
		Combine:  func(a, b struct{}) struct{} { return struct{}{} },
	}
}
