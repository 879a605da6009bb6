package collective

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Gather collects every node's value to root, returned in element order
// (the block data layout: in[DataIndex(u)] is node u's value). Like the
// other collectives it uses the cluster technique and takes exactly 2n
// communication steps — the diameter of D_n:
//
//  1. every cluster binomial-gathers its block to a collector node
//     (clusters of root's class collect at local index = root's local
//     index; the other class at local index = root's cluster ID), n-1
//     steps;
//  2. all collectors hop their cross-edges, which lands every bundle of
//     root's class in one designated opposite-class cluster, and every
//     opposite-class bundle in root's own cluster, 1 step;
//  3. those two clusters binomial-gather the bundles (concurrently; they
//     are disjoint), n-1 steps: root now holds the whole opposite class,
//     and root's cross neighbor holds the whole of root's class;
//  4. root's cross neighbor hands its mega-bundle across, 1 step.
//
// The values ride the arena payload plane: the host places each node's
// value at its bit-reversed arena slot, the kernel merges only (offset,
// length) extents — the fan-in above unions adjacent runs at every step
// under that order — and the host reads the single full-arena extent back
// out at root. A warm call reuses the stashed plane and allocates only the
// result slice plus fixed run bookkeeping.
func Gather[T any](cfg machine.Config, c topology.Comm, root topology.NodeID, in []T) ([]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}
	if root < 0 || root >= c.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("collective: root %d out of range", root)
	}
	m := c.ClusterDim()
	sch, err := dcomm.Compiled(c, dcomm.OpGather)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	N := c.Nodes()
	tab := c.Tables()
	lay := layoutFor(c)
	pl := extentPlane[T](N)
	defer putExtentPlane(N, pl)
	// Element i belongs to node NodeAtDataIndex(i); place it at that node's
	// arena slot, and start every node's extent as that one slot.
	for i, v := range in {
		pl.Vals[lay.posOf[tab.AtData[i]]] = v
	}
	copy(pl.Off, lay.posOf)
	for u := range pl.Len {
		pl.Len[u] = 1
	}

	r := tab.Node[root]
	gk := &gatherKernel[T]{
		node: tab.Node, sch: sch, mdim: m, root: root, rootCross: c.CrossNeighbor(root),
		rootClass: int(r.Class), rootCluster: int(r.Cluster), rootLocal: int(r.Local),
		pl: pl,
	}
	st, err := dcomm.Execute(sch, cfg, gk)
	if err != nil {
		return nil, st, err
	}
	if u, marker := pl.FirstBad(); u >= 0 {
		return nil, st, fmt.Errorf("collective: gather merged non-adjacent extents at node %d (step %d)", u, marker-1)
	}
	if int(pl.Len[root]) != N {
		return nil, st, fmt.Errorf("collective: gather delivered %d of %d items", pl.Len[root], N)
	}
	out := make([]T, N)
	for i := range out {
		out[i] = pl.Vals[lay.posOf[tab.AtData[i]]]
	}
	return out, st, nil
}

// gatherKernel is the binomial fan-in as a kernel over the extent plane. A
// node's bundle is empty (Len 0) exactly when it has handed its items up
// the collection tree — which also disambiguates the phase-2 roles during
// Absorb: the bundle of a collector that exchanged with its cross collector
// is still non-empty, a bare receiver's is empty. node is the order's node
// table; rootCross is root's cross neighbor.
type gatherKernel[T any] struct {
	node        []topology.NodeRole
	sch         *machine.Schedule
	mdim        int
	root        topology.NodeID
	rootCross   topology.NodeID
	rootClass   int
	rootCluster int
	rootLocal   int
	pl          *machine.ExtentPlane[T]
}

// gatherRole is one level of the collection tree at a node with the given
// local ID: the schedule supplies the descending dimension, tgt is the
// collector's local index.
func (gk *gatherKernel[T]) gatherRole(k, local, tgt int) machine.DirectRole {
	i := gk.sch.Steps[k].Dim
	maskAbove := ^((1 << (i + 1)) - 1)
	if local&maskAbove != tgt&maskAbove {
		return machine.DirectIdle // already out of the collection tree at this level
	}
	if local&(1<<i) != tgt&(1<<i) {
		return machine.DirectSend
	}
	return machine.DirectRecv
}

// target returns the collector position inside a cluster of the given
// class.
func (gk *gatherKernel[T]) target(class int) int {
	if class != gk.rootClass {
		return gk.rootCluster
	}
	return gk.rootLocal
}

// take returns node u's current extent and empties its slot — the bundle is
// leaving over the link.
func (gk *gatherKernel[T]) take(u int) machine.Extent {
	b := machine.Extent{Off: gk.pl.Off[u], Len: gk.pl.Len[u]}
	gk.pl.Len[u] = 0
	return b
}

func (gk *gatherKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, machine.Extent) {
	pl := gk.pl
	nd := gk.node[u]
	class, cluster, local := int(nd.Class), int(nd.Cluster), int(nd.Local)
	switch {
	case k < gk.mdim:
		// Phase 1: binomial gather of the cluster block toward the target
		// (reverse flood: the schedule descends dimensions m-1 down to 0).
		role := gk.gatherRole(k, local, gk.target(class))
		if role == machine.DirectSend {
			return role, gk.take(u)
		}
		return role, machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}
	case k == gk.mdim:
		// Phase 2: collectors hop their cross-edges; a node receives iff its
		// cross neighbor is a collector of its own cluster. The cross-edge
		// swaps the two address fields, so that neighbor is the node of the
		// other class whose local ID is u's cluster ID.
		b := machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}
		isCollector := local == gk.target(class) && b.Len != 0
		crossIsCollector := cluster == gk.target(1-class)
		switch {
		case isCollector && crossIsCollector:
			return machine.DirectExchange, b
		case isCollector:
			pl.Len[u] = 0
			return machine.DirectSend, b
		case crossIsCollector:
			return machine.DirectRecv, b
		}
		return machine.DirectIdle, b
	case k <= 2*gk.mdim:
		// Phase 3: two clusters gather the phase-2 bundles concurrently:
		// root's cluster (toward root) and the opposite-class mirror cluster
		// (toward root's cross neighbor).
		inRootCluster := class == gk.rootClass && cluster == gk.rootCluster
		inMirrorCluster := class != gk.rootClass && cluster == gk.rootLocal
		if !inRootCluster && !inMirrorCluster {
			return machine.DirectIdle, machine.Extent{}
		}
		tgt := gk.rootLocal
		if inMirrorCluster {
			tgt = gk.rootCluster
		}
		role := gk.gatherRole(k, local, tgt)
		if role == machine.DirectSend {
			return role, gk.take(u)
		}
		return role, machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}
	default:
		// Phase 4: root's cross neighbor delivers the mega-bundle.
		switch u {
		case gk.rootCross:
			return machine.DirectSend, gk.take(u)
		case gk.root:
			return machine.DirectRecv, machine.Extent{}
		}
		return machine.DirectIdle, machine.Extent{}
	}
}

func (gk *gatherKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v machine.Extent) {
	pl := gk.pl
	if k == gk.mdim {
		// Phase 2 cross hop: collectors exchanging with their cross
		// collector count the swap as a round of work; bare receivers
		// (bundle already empty) just adopt the incoming extent.
		if pl.Len[u] != 0 {
			pl.Off[u], pl.Len[u] = v.Off, v.Len
			dc.Ops(1)
		} else {
			pl.Off[u], pl.Len[u] = v.Off, v.Len
		}
		return
	}
	merged, ok := (machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}).Merge(v)
	if !ok && pl.Bad[u] == 0 {
		pl.Bad[u] = int32(k) + 1
	}
	pl.Off[u], pl.Len[u] = merged.Off, merged.Len
	dc.Ops(1)
}

func (gk *gatherKernel[T]) Local(dc *machine.DirectCtx, k, u int) {}
