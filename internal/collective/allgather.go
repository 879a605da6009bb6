package collective

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// AllGather delivers every node's element to every node (in element
// order), in 2n communication steps: in-cluster all-gather (n-1 steps,
// bundles doubling), cross-edge block exchange (1), in-cluster all-gather
// of the received blocks — after which each node holds the entire opposite
// class (n-1 steps) — and a final cross-edge swap of the class halves (1).
//
// The values ride the arena payload plane in NATURAL element order: the
// ascending doubling frees low local bits first, so every bundle is a
// contiguous run of the element sequence and each merge unions two
// adjacent runs. The kernel moves only extents over one shared arena; the
// host verifies every node assembled the full run and materializes the
// per-node rows from one backing slab (two result allocations total).
func AllGather[T any](cfg machine.Config, c topology.Comm, in []T) ([][]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}
	m := c.ClusterDim()
	sch, err := dcomm.Compiled(c, dcomm.OpAllGather)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	N := c.Nodes()
	pl := extentPlane[T](N)
	defer putExtentPlane(N, pl)
	copy(pl.Vals, in) // the arena IS the element sequence
	// Every node starts with the one-element extent of its own element.
	for u, nd := range c.Tables().Node {
		pl.Off[u], pl.Len[u] = nd.Data, 1
	}

	agk := &allGatherKernel[T]{mdim: m, pl: pl}
	st, err := dcomm.Execute(sch, cfg, agk)
	if err != nil {
		return nil, st, err
	}
	backing := make([]T, N*N)
	out := make([][]T, N)
	for u := 0; u < N; u++ {
		if pl.Off[u] != 0 || int(pl.Len[u]) != N {
			return nil, st, fmt.Errorf("collective: node %d assembled %d of %d items", u, pl.Len[u], N)
		}
		row := backing[u*N : (u+1)*N : (u+1)*N]
		copy(row, pl.Vals)
		out[u] = row
	}
	return out, st, nil
}

// allGatherKernel doubles extents along the cluster sweeps: the primary
// extent grows to the node's own class block, the secondary to the complete
// opposite class, and the final cross swap plus local merge assembles the
// whole sequence per node. Every union is of adjacent runs of the natural
// element order, so the two extent tables are the only in-flight state.
type allGatherKernel[T any] struct {
	mdim int
	pl   *machine.ExtentPlane[T]
}

func (agk *allGatherKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, machine.Extent) {
	pl := agk.pl
	if k <= agk.mdim {
		// Phases 1-2: all-gather the block within the cluster, then swap
		// blocks over the cross-edge.
		return machine.DirectExchange, machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}
	}
	// Phases 3-4: all-gather the received blocks, then swap class halves.
	return machine.DirectExchange, machine.Extent{Off: pl.Off2[u], Len: pl.Len2[u]}
}

func (agk *allGatherKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v machine.Extent) {
	pl := agk.pl
	switch {
	case k < agk.mdim:
		merged, ok := (machine.Extent{Off: pl.Off[u], Len: pl.Len[u]}).Merge(v)
		if !ok && pl.Bad[u] == 0 {
			pl.Bad[u] = int32(k) + 1
		}
		pl.Off[u], pl.Len[u] = merged.Off, merged.Len
		dc.Ops(1)
	case k == agk.mdim:
		pl.Off2[u], pl.Len2[u] = v.Off, v.Len
	case k <= 2*agk.mdim:
		merged, ok := (machine.Extent{Off: pl.Off2[u], Len: pl.Len2[u]}).Merge(v)
		if !ok && pl.Bad[u] == 0 {
			pl.Bad[u] = int32(k) + 1
		}
		pl.Off2[u], pl.Len2[u] = merged.Off, merged.Len
		dc.Ops(1)
	default:
		// v is this node's own class half, swapped back; the union is the
		// whole sequence.
		merged, ok := v.Merge(machine.Extent{Off: pl.Off2[u], Len: pl.Len2[u]})
		if !ok && pl.Bad[u] == 0 {
			pl.Bad[u] = int32(k) + 1
		}
		pl.Off[u], pl.Len[u] = merged.Off, merged.Len
	}
}

func (agk *allGatherKernel[T]) Local(dc *machine.DirectCtx, k, u int) {
	dc.Ops(1)
}
