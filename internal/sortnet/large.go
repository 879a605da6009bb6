package sortnet

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// DSortLarge generalizes D_sort to k keys per node (future-work item 1 of
// the paper): keys has length k·2^(2n-1); chunk r (in recursive-ID order)
// is placed on the node with recursive ID r. Each node sorts its chunk
// locally, then the D_sort network — the same compiled OpDSort schedule as
// DSort, on any family — runs with merge-split in place of
// compare-and-exchange. The result is fully sorted in (recursive ID, chunk
// offset) order, ascending or descending per ord.
//
// Communication steps are identical to DSort (messages carry k keys);
// computation grows by the local sort and the k-element merges.
func DSortLarge[K any](cfg machine.Config, c topology.Comm, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, error) {
	if err := validLarge(k, len(keys), c.Nodes(), ord); err != nil {
		return nil, machine.Stats{}, err
	}
	sch, err := dcomm.Compiled(c, dcomm.OpDSort)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	mk := &mergeKernel[K]{
		less: less, ord: ord, steps: sch.Steps, id: sch.SortIDs(), in: keys,
		lanes: machine.NewLanes[K](c.Nodes(), k),
	}
	st, err := dcomm.Execute(sch, cfg, mk)
	if err != nil {
		return nil, st, err
	}
	return mk.unload(make([]K, len(keys))), st, nil
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
