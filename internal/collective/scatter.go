package collective

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Scatter is the exact mirror of Gather: root starts with all N elements
// in element order and every node ends with its own element (in[idx] lands
// on NodeAtDataIndex(idx)). 2n communication steps:
//
//  1. root keeps the opposite class's elements and hands its own class's
//     elements across the cross-edge (1 step);
//  2. root's cluster splits the opposite-class elements by destination
//     cluster while the mirror cluster splits root's class likewise
//     (binomial tree, n-1 steps);
//  3. both clusters push each destination cluster's block over the
//     cross-edges to that cluster's seed (1 step);
//  4. every cluster splits its block down to single elements (n-1 steps).
//
// The values ride the arena payload plane, ordered by DESTINATION slot
// under the bit-reversed arena order: phase 1 is the split of the arena
// into its class halves, and every later split is a midpoint halving of a
// contiguous run (the key bit a step partitions by is the run's top
// varying position), so the kernel only narrows extents and never moves a
// value. The returned slice is indexed by node ID with each node's own
// element.
func Scatter[T any](cfg machine.Config, c topology.Comm, root topology.NodeID, in []T) ([]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}
	if root < 0 || root >= c.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("collective: root %d out of range", root)
	}
	m := c.ClusterDim()
	sch, err := dcomm.Compiled(c, dcomm.OpScatter)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	N := c.Nodes()
	tab := c.Tables()
	lay := layoutFor(c)
	pl := extentPlane[T](N)
	defer putExtentPlane(N, pl)
	// Element i is destined for node NodeAtDataIndex(i); place it at the
	// destination's arena slot.
	for i, v := range in {
		pl.Vals[lay.posOf[tab.AtData[i]]] = v
	}

	// Root holds the whole arena: it keeps the opposite class's half and
	// exports its own class's half in step 0 (the arena's class halves are
	// exactly those two sets).
	r := tab.Node[root]
	half := int32(N / 2)
	keep, send := machine.Extent{Off: 0, Len: half}, machine.Extent{Off: half, Len: half}
	if r.Class == 0 {
		keep, send = send, keep
	}
	pl.Off[root], pl.Len[root] = keep.Off, keep.Len
	sk := &scatterKernel[T]{
		node: tab.Node, sch: sch, mdim: m, root: root, rootCross: c.CrossNeighbor(root),
		rootClass: int(r.Class), rootCluster: int(r.Cluster), rootLocal: int(r.Local),
		rootSend: send, pl: pl,
	}
	st, err := dcomm.Execute(sch, cfg, sk)
	if err != nil {
		return nil, st, err
	}
	out := make([]T, N)
	for u := 0; u < N; u++ {
		if pl.Len[u] != 1 || pl.Off[u] != lay.posOf[u] {
			return nil, st, fmt.Errorf("collective: scatter delivered %d item(s) to node %d", pl.Len[u], u)
		}
		out[u] = pl.Vals[pl.Off[u]]
	}
	return out, st, nil
}

// scatterKernel is the splitting fan-out as a kernel — the exact reverse of
// gatherKernel's fan-in, narrowing extents over the destination-ordered
// arena. Every receive simply adopts the incoming extent (the sender
// halved its run), so Absorb is a plain replacement and the host verifies
// each node ends with exactly its own slot. node is the order's node table;
// rootCross is root's cross neighbor and rootSend the half of the arena root
// exports in step 0 (the host seeds root's extent with the half it keeps).
type scatterKernel[T any] struct {
	node        []topology.NodeRole
	sch         *machine.Schedule
	mdim        int
	root        topology.NodeID
	rootCross   topology.NodeID
	rootClass   int
	rootCluster int
	rootLocal   int
	rootSend    machine.Extent
	pl          *machine.ExtentPlane[T]
}

// splitRole is one level of the fan-out tree at node u, whose local ID is
// local: the schedule ascends the dimensions, and at level i the active
// subtree is the set of locals matching the seed on bits above i (the
// holders halve their bundles toward the bit-i partner). Under the
// bit-reversed arena order the first half of a holder's run carries key bit
// i == 0, so the holder keeps the half matching its own bit and sends the
// other — a midpoint split, no value moves.
func (sk *scatterKernel[T]) splitRole(k, u, local, seed int) (machine.DirectRole, machine.Extent) {
	i := sk.sch.Steps[k].Dim
	maskAbove := ^((1 << (i + 1)) - 1)
	if local&maskAbove != seed&maskAbove {
		return machine.DirectIdle, machine.Extent{} // this subtree receives its share in a later round
	}
	if local&(1<<i) == seed&(1<<i) {
		pl := sk.pl
		lo, hi := (machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}).Halves()
		keep, send := lo, hi
		if local&(1<<i) != 0 {
			keep, send = hi, lo
		}
		pl.Off[u], pl.Len[u] = keep.Off, keep.Len
		return machine.DirectSend, send
	}
	return machine.DirectRecv, machine.Extent{}
}

func (sk *scatterKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, machine.Extent) {
	pl := sk.pl
	nd := sk.node[u]
	class, cluster, local := int(nd.Class), int(nd.Cluster), int(nd.Local)
	inRootCluster := class == sk.rootClass && cluster == sk.rootCluster
	inMirrorCluster := class != sk.rootClass && cluster == sk.rootLocal
	switch {
	case k == 0:
		// Phase 1: root keeps the opposite class, exports its own class.
		switch u {
		case sk.root:
			return machine.DirectSend, sk.rootSend
		case sk.rootCross:
			return machine.DirectRecv, machine.Extent{}
		}
		return machine.DirectIdle, machine.Extent{}
	case k <= sk.mdim:
		// Phase 2: split by destination cluster inside root's cluster and
		// the mirror cluster (seed locals rootLocal and rootCluster; the
		// responsible member for destination cluster x has local x).
		if inRootCluster {
			return sk.splitRole(k, u, local, sk.rootLocal)
		}
		if inMirrorCluster {
			return sk.splitRole(k, u, local, sk.rootCluster)
		}
		return machine.DirectIdle, machine.Extent{}
	case k == sk.mdim+1:
		// Phase 3: hand each destination cluster's block to its seed over
		// the cross-edges. Receivers are the seeds: local == rootCluster in
		// the class opposite root, local == rootLocal in root's class.
		isSeed := (class == sk.rootClass && local == sk.rootLocal) ||
			(class != sk.rootClass && local == sk.rootCluster)
		isSender := inRootCluster || inMirrorCluster
		b := machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}
		switch {
		case isSender && isSeed:
			return machine.DirectExchange, b
		case isSender:
			pl.Len[u] = 0
			return machine.DirectSend, b
		case isSeed:
			return machine.DirectRecv, machine.Extent{}
		}
		return machine.DirectIdle, machine.Extent{}
	default:
		// Phase 4: every cluster splits its block from its seed down to
		// single elements.
		seed := sk.rootLocal
		if class != sk.rootClass {
			seed = sk.rootCluster
		}
		return sk.splitRole(k, u, local, seed)
	}
}

func (sk *scatterKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v machine.Extent) {
	sk.pl.Off[u], sk.pl.Len[u] = v.Off, v.Len
}

func (sk *scatterKernel[T]) Local(dc *machine.DirectCtx, k, u int) {}
