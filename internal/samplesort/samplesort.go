// Package samplesort implements parallel sample sort on the dual-cube — a
// second sorting-algorithm family (future-work item 3 of the paper, "more
// application algorithms using the proposed techniques") built entirely
// from the cluster-technique collectives: regular sampling, an all-gather
// of the samples, local partitioning, and a variable-size total exchange.
//
// Where bitonic D_sort needs Θ(n²) communication steps regardless of load,
// sample sort finishes in 4n collective rounds (one all-gather plus one
// all-to-all-v, each 2n) — the classic latency trade: fewer, fatter
// messages. For k keys per node it is the practical choice; the harness
// compares both in experiment E17.
package samplesort

import (
	"fmt"
	"sort"

	"dualcube/internal/collective"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Sort sorts k·2^(2n-1) keys (k per node in element order) on c by
// parallel sample sort:
//
//  1. every node sorts its chunk locally and draws P-1 regular samples
//     (P = 2^(2n-1) nodes);
//  2. one AllGather (2n rounds) gives every node the full sample multiset,
//     from which all nodes deterministically derive the same P-1 splitters;
//  3. every node partitions its chunk into P buckets by splitter;
//  4. one AllToAllV (2n rounds) delivers bucket j of every node to node j;
//  5. every node sorts its received bucket.
//
// The result is the fully sorted sequence (bucket sizes vary with the key
// distribution, so nodes end with unequal shares; the returned slice is
// their in-order concatenation). Communication: exactly 4n rounds.
func Sort[K any](cfg machine.Config, c topology.Comm, k int, keys []K, less func(a, b K) bool) ([]K, machine.Stats, error) {
	if k < 1 {
		return nil, machine.Stats{}, fmt.Errorf("samplesort: chunk size %d < 1", k)
	}
	P := c.Nodes()
	if len(keys) != k*P {
		return nil, machine.Stats{}, fmt.Errorf("samplesort: %d keys != k*P = %d", len(keys), k*P)
	}

	// Phase 1: local sort + regular sampling (host-side per-node state,
	// indexed by element position like the machine programs read it).
	chunks := make([][]K, P)
	samples := make([][]K, P)
	for i := 0; i < P; i++ {
		chunk := append([]K(nil), keys[i*k:(i+1)*k]...)
		sort.SliceStable(chunk, func(a, b int) bool { return less(chunk[a], chunk[b]) })
		chunks[i] = chunk
		// P-1 regular samples per node (with repetition when k < P-1).
		s := make([]K, 0, P-1)
		for t := 1; t < P; t++ {
			s = append(s, chunk[t*k/P])
		}
		samples[i] = s
	}

	// Phase 2: all-gather the samples; every node derives the splitters.
	// The collective carries each node's sample slice as one element.
	gathered, stAG, err := collective.AllGather(cfg, c, samples)
	if err != nil {
		return nil, stAG, err
	}
	// All nodes hold identical sample sets; compute the splitters once
	// (they would compute byte-identical results in parallel).
	all := make([]K, 0, P*(P-1))
	for _, s := range gathered[0] {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(a, b int) bool { return less(all[a], all[b]) })
	splitters := make([]K, 0, P-1)
	for t := 1; t < P; t++ {
		splitters = append(splitters, all[t*len(all)/P])
	}

	// Phase 3: partition each chunk by splitter (buckets stay sorted).
	buckets := make([][][]K, P)
	for i := 0; i < P; i++ {
		buckets[i] = make([][]K, P)
		chunk := chunks[i]
		lo := 0
		for b := 0; b < P; b++ {
			hi := len(chunk)
			if b < P-1 {
				sp := splitters[b]
				hi = lo + sort.Search(len(chunk)-lo, func(x int) bool { return less(sp, chunk[lo+x]) })
			}
			buckets[i][b] = chunk[lo:hi]
			lo = hi
		}
	}

	// Phase 4: the variable-size total exchange.
	recv, stA2A, err := collective.AllToAllV(cfg, c, buckets)
	if err != nil {
		return nil, stA2A, err
	}

	// Phase 5: each node merges its received (already sorted) runs; the
	// global result is their concatenation in node order.
	out := make([]K, 0, len(keys))
	for j := 0; j < P; j++ {
		var mine []K
		for i := 0; i < P; i++ {
			mine = append(mine, recv[j][i]...)
		}
		sort.SliceStable(mine, func(a, b int) bool { return less(mine[a], mine[b]) })
		out = append(out, mine...)
	}
	return out, stAG.Add(stA2A), nil
}
