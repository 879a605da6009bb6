package sortnet

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// routed pairs a payload with its destination slot during permutation
// routing.
type routed[T any] struct {
	dest int
	val  T
}

// Permute performs one-to-one routing on c by sorting — the classic
// "routing by sorting" reduction: element i (carrying values[i]) is
// delivered to slot dests[i], where dests is a permutation of 0..N-1.
// Internally the (dest, value) pairs run through D_sort keyed by dest, so
// after sorting the pair destined for slot j sits exactly at position j.
// The cost is that of one D_sort: 6n²-7n+2 communication steps — an
// oblivious, contention-free routing schedule for any permutation.
func Permute[T any](cfg machine.Config, c topology.Comm, dests []int, values []T) ([]T, machine.Stats, error) {
	if len(dests) != len(values) {
		return nil, machine.Stats{}, fmt.Errorf("sortnet: %d destinations for %d values", len(dests), len(values))
	}
	seen := make([]bool, len(dests))
	for i, d := range dests {
		if d < 0 || d >= len(dests) || seen[d] {
			return nil, machine.Stats{}, fmt.Errorf("sortnet: dests is not a permutation (entry %d = %d)", i, d)
		}
		seen[d] = true
	}
	pairs := make([]routed[T], len(values))
	for i := range values {
		pairs[i] = routed[T]{dest: dests[i], val: values[i]}
	}
	sorted, st, err := DSort(cfg, c, pairs, func(a, b routed[T]) bool { return a.dest < b.dest }, Ascending, nil)
	if err != nil {
		return nil, st, err
	}
	out := make([]T, len(values))
	for j, p := range sorted {
		out[j] = p.val
	}
	return out, st, nil
}
