package sortnet

import (
	"fmt"
	"slices"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// DSortLarge generalizes D_sort to k keys per node (future-work item 1 of
// the paper): keys has length k·2^(2n-1); chunk r (in recursive-ID order)
// is placed on the node with recursive ID r. Each node sorts its chunk
// locally, then the D_sort network runs with merge-split in place of
// compare-and-exchange. The result is fully sorted in (recursive ID, chunk
// offset) order, ascending or descending per ord.
//
// Communication steps are identical to DSort (messages carry k keys);
// computation grows by the local sort and the k-element merges.
func DSortLarge[K any](cfg machine.Config, n, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, error) {
	d, err := topology.Shared(n)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return DSortLargeOn(cfg, d, k, keys, less, ord)
}

// DSortLargeOn is DSortLarge over an explicit communication topology
// carrying the recursive presentation: the merge-split kernel runs over the
// same compiled OpDSort schedule as DSortOn, on any family.
func DSortLargeOn[K any](cfg machine.Config, d topology.Recursive, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, error) {
	if err := validLarge(k, len(keys), d.Nodes(), ord); err != nil {
		return nil, machine.Stats{}, err
	}
	sch, err := dcomm.Compiled(d, dcomm.OpDSort)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return sortChunks(cfg, sch, k, keys, less, ord)
}

// CubeSortLarge is the same generalization for the hypercube baseline:
// k keys per node of Q_q, bitonic sort with merge-split.
func CubeSortLarge[K any](cfg machine.Config, q, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, error) {
	h, err := topology.NewHypercube(q)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	if err := validLarge(k, len(keys), h.Nodes(), ord); err != nil {
		return nil, machine.Stats{}, err
	}
	if q == 0 {
		// Q_0 is one node with no exchange step to run the local sort in:
		// the sort is that local sort.
		out := slices.Clone(keys)
		sortChunk(out, make([]K, k), less)
		if ord == Descending {
			slices.Reverse(out)
		}
		return out, machine.Stats{Nodes: 1, MaxOps: 1, TotalOps: 1}, nil
	}
	sch, err := dcomm.CompiledCubeSort(h)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return sortChunks(cfg, sch, k, keys, less, ord)
}

func validLarge(k, keys, nodes int, ord Order) error {
	if k < 1 {
		return fmt.Errorf("sortnet: chunk size %d < 1", k)
	}
	if keys != k*nodes {
		return fmt.Errorf("sortnet: %d keys != k*N = %d", keys, k*nodes)
	}
	return validOrder(ord)
}

// sortChunks runs the merge-split kernel over a compiled sort schedule,
// through dcomm.Execute like every schedule-driven operation: k keys per
// node, chunk r of keys on the node with sort ID r.
func sortChunks[K any](cfg machine.Config, sch *machine.Schedule, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, error) {
	mk := &mergeKernel[K]{
		less: less, ord: ord, steps: sch.Steps, id: sch.SortIDs(), in: keys,
		lanes: machine.NewLanes[K](sch.Topology().Nodes(), k),
	}
	st, err := dcomm.Execute(sch, cfg, mk)
	if err != nil {
		return nil, st, err
	}
	return mk.unload(make([]K, len(keys))), st, nil
}
