// Package dualcube is a library of parallel algorithms on the dual-cube
// interconnection network, reproducing "Prefix Computation and Sorting in
// Dual-Cube" (Yamin Li, Shietung Peng, Wanming Chu; ICPP 2008).
//
// The dual-cube D_n is a bounded-degree hypercube derivative: 2^(2n-1)
// nodes of degree n (the equal-sized hypercube needs 2n-1 links per node),
// diameter 2n. This package provides:
//
//   - the topology itself (addressing, clusters, cross-edges, distance,
//     routing, and the recursive presentation) via New;
//   - a shared Runtime layer (NewRuntime) binding the cached topology, its
//     node tables and the compiled schedules, so repeated operations run
//     with no per-call topology or schedule construction; NewRuntimeOn
//     binds the odd hypercube Q_{2n-1} or the Z-cube Z_n instead, which
//     contain D_n, and every operation runs on all three;
//   - parallel prefix computation (Algorithm 2 of the paper): 2n
//     communication steps on a simulated synchronous multicomputer —
//     Prefix, PrefixFunc, PrefixLarge;
//   - bitonic sorting (Algorithm 3): 6n²-7n+2 communication steps —
//     Sort, SortFunc, SortLarge;
//   - collective operations built with the same cluster technique, each
//     taking 2n rounds (the diameter): Broadcast, AllReduce, Gather,
//     Scatter, AllGather, AllToAll(V), ReduceScatter;
//   - applications of the two techniques: segmented scans, oblivious
//     permutation routing (Permute), parallel sample sort, a distributed
//     number-theoretic transform with exact polynomial multiplication, and
//     a verified Hamiltonian-cycle (ring) embedding.
//
// Every operation is a compiled communication schedule plus a kernel, run
// on a direct kernel executor that reports exactly what the synchronous
// message-passing simulator, its reference oracle, measures: each returns a
// Stats value with the communication and computation costs in the paper's
// measures, so the theorems can be checked empirically (see EXPERIMENTS.md).
//
// The package-level functions are one-shot conveniences: each resolves the
// package-default Runtime for its order and delegates to the corresponding
// ...On function. Long-running callers can hold their own Runtime (see
// NewRuntime), though both styles share the same process-wide caches.
package dualcube

import (
	"cmp"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// Stats reports the cost of one simulated run: clock cycles (communication
// time), cycles that carried traffic, total messages (= link hops), and
// per-node computation rounds (MaxOps is the parallel computation time).
type Stats = machine.Stats

// Order selects a sort direction (the paper's tag).
type Order = sortnet.Order

// Sort directions.
const (
	Ascending  = sortnet.Ascending
	Descending = sortnet.Descending
)

// Network is a dual-cube D_n: the topology handle used for structural
// queries. The package-level operations take the order n and the ...On
// operations a Runtime, so a Network is only needed for inspecting the
// graph itself.
type Network struct {
	d *topology.DualCube
}

// New returns the dual-cube D_n (1 <= n <= 14). D_n has 2^(2n-1) nodes,
// each with n-1 intra-cluster links and one cross-edge. The underlying
// topology value is the process-wide cached instance.
func New(n int) (*Network, error) {
	d, err := topology.Shared(n)
	if err != nil {
		return nil, err
	}
	return &Network{d: d}, nil
}

// Order returns n, the number of links per node.
func (nw *Network) Order() int { return nw.d.Order() }

// Nodes returns the number of nodes, 2^(2n-1).
func (nw *Network) Nodes() int { return nw.d.Nodes() }

// Degree returns the degree n of every node.
func (nw *Network) Degree() int { return nw.d.Order() }

// Diameter returns the network diameter, 2n (1 for D_1).
func (nw *Network) Diameter() int { return nw.d.Diameter() }

// ClusterSize returns the number of nodes per cluster, 2^(n-1).
func (nw *Network) ClusterSize() int { return nw.d.ClusterSize() }

// Class returns the class indicator (0 or 1) of node u.
func (nw *Network) Class(u int) int { return nw.d.Class(u) }

// ClusterID returns node u's cluster within its class.
func (nw *Network) ClusterID(u int) int { return nw.d.ClusterID(u) }

// LocalID returns node u's index within its cluster.
func (nw *Network) LocalID(u int) int { return nw.d.LocalID(u) }

// CrossNeighbor returns the endpoint of node u's cross-edge.
func (nw *Network) CrossNeighbor(u int) int { return nw.d.CrossNeighbor(u) }

// Neighbors returns node u's n neighbors in ascending order.
func (nw *Network) Neighbors(u int) []int { return nw.d.Neighbors(u) }

// HasEdge reports whether {u, v} is a link.
func (nw *Network) HasEdge(u, v int) bool { return nw.d.HasEdge(u, v) }

// Distance returns the shortest-path length between u and v using the
// paper's closed form (Hamming distance, +2 when u and v lie in distinct
// clusters of the same class).
func (nw *Network) Distance(u, v int) int { return nw.d.Distance(u, v) }

// Route returns a shortest path from u to v, inclusive of both endpoints.
func (nw *Network) Route(u, v int) []int { return nw.d.Route(u, v) }

// ToRecursive converts a node address to the recursive (bit-interleaved)
// presentation of the paper's Section 4; FromRecursive inverts it.
func (nw *Network) ToRecursive(u int) int { return nw.d.ToRecursive(u) }

// FromRecursive converts a recursive ID back to a node address.
func (nw *Network) FromRecursive(r int) int { return nw.d.FromRecursive(r) }

// mono assembles an internal monoid from the facade's function pair.
func mono[T any](identity func() T, combine func(a, b T) T) monoid.Monoid[T] {
	return monoid.Monoid[T]{Name: "user", Identity: identity, Combine: combine}
}

// Prefix computes all prefix sums of in on D_n: out[i] = in[0]+...+in[i].
// in must have length 2^(2n-1) (one element per node; see PrefixLarge for
// longer inputs). It runs Algorithm 2 of the paper in 2n communication
// steps.
func Prefix[T monoid.Number](n int, in []T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixOn(rt, in)
}

// PrefixFunc computes all prefixes of in under an arbitrary associative
// operation with identity; combine is applied strictly in element order, so
// non-commutative operations are supported. Set inclusive to false for the
// diminished prefix (out[i] excludes in[i]).
func PrefixFunc[T any](n int, in []T, identity func() T, combine func(a, b T) T, inclusive bool) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixFuncOn(rt, in, identity, combine, inclusive)
}

// PrefixDegraded computes all prefix sums of in on a D_n degraded by plan's
// permanent link faults: the schedule reroutes every severed exchange over
// alive detour paths, correct for any f <= n-1 link faults (the link
// connectivity of D_n). A nil plan is byte-identical to Prefix; each broken
// pair stretches the 2n-step schedule by its repair relay cycles, reported in
// Stats (see EXPERIMENTS.md for the measured sweep against Theorem 1's 2n+1
// bound). A plan that names a non-link, or whose faults disconnect the
// network, is rejected.
func PrefixDegraded[T monoid.Number](n int, in []T, plan *FaultPlan) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixDegradedOn(rt, in, plan)
}

// PrefixDegradedFunc is PrefixDegraded for an arbitrary monoid, with the
// inclusive/diminished choice of PrefixFunc.
func PrefixDegradedFunc[T any](n int, in []T, identity func() T, combine func(a, b T) T, inclusive bool, plan *FaultPlan) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixDegradedFuncOn(rt, in, identity, combine, inclusive, plan)
}

// PrefixLarge computes prefix sums of an input with k = len(in)/2^(2n-1)
// elements per node (len(in) must be a multiple of the node count). The
// communication cost stays 2n steps regardless of k.
func PrefixLarge[T monoid.Number](n, k int, in []T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixLargeOn(rt, k, in)
}

// PrefixLargeFunc is PrefixLarge for an arbitrary monoid.
func PrefixLargeFunc[T any](n, k int, in []T, identity func() T, combine func(a, b T) T, inclusive bool) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixLargeFuncOn(rt, k, in, identity, combine, inclusive)
}

// Sort sorts 2^(2n-1) ordered keys on D_n with Algorithm 3 (bitonic sort
// over the recursive presentation): 6n²-7n+2 communication steps and
// 2n²-n comparison rounds.
func Sort[K cmp.Ordered](n int, keys []K, ord Order) ([]K, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return SortOn(rt, keys, ord)
}

// SortFunc sorts arbitrary records under a user comparison.
func SortFunc[K any](n int, keys []K, less func(a, b K) bool, ord Order) ([]K, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return SortFuncOn(rt, keys, less, ord)
}

// SortLarge sorts k·2^(2n-1) keys, k per node, by local sort plus
// merge-split compare-exchange. Communication steps are the same as Sort.
func SortLarge[K cmp.Ordered](n, k int, keys []K, ord Order) ([]K, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return SortLargeOn(rt, k, keys, ord)
}

// SortLargeFunc is SortLarge with a user comparison.
func SortLargeFunc[K any](n, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return SortLargeFuncOn(rt, k, keys, less, ord)
}

// Broadcast delivers value from node root to every node in 2n steps (the
// network diameter). The result is indexed by node ID.
func Broadcast[T any](n int, root int, value T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return BroadcastOn(rt, root, value)
}

// AllReduce combines all elements in order and delivers the total to every
// node, in 2n steps.
func AllReduce[T any](n int, in []T, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return AllReduceOn(rt, in, identity, combine)
}

// AllReduceSum is AllReduce specialised to addition.
func AllReduceSum[T monoid.Number](n int, in []T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return AllReduceSumOn(rt, in)
}

// Gather collects every element to root in 2n steps and returns them in
// element order.
func Gather[T any](n int, root int, in []T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return GatherOn(rt, root, in)
}

// PrefixSegmented computes the inclusive segmented prefix: heads[i] = true
// starts a new segment at element i, and out[i] combines the values from
// its segment's start through i. Same 2n-step cost as Prefix.
func PrefixSegmented[T any](n int, values []T, heads []bool, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PrefixSegmentedOn(rt, values, heads, identity, combine)
}

// Scatter distributes in (element order) from root so each node receives
// its own element, in 2n steps. The result is indexed by node ID.
func Scatter[T any](n int, root int, in []T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return ScatterOn(rt, root, in)
}

// AllGather delivers the whole element sequence to every node in 2n steps;
// out[u] is node u's copy, in element order.
func AllGather[T any](n int, in []T) ([][]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return AllGatherOn(rt, in)
}

// Permute routes values[i] to slot dests[i] (dests must be a permutation
// of 0..2^(2n-1)-1) by sorting on the destinations — an oblivious,
// contention-free schedule for any permutation at the cost of one Sort.
func Permute[T any](n int, dests []int, values []T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PermuteOn(rt, dests, values)
}

// HamiltonianCycle returns a Hamiltonian cycle of D_n (n >= 2): a
// dilation-1 ring embedding over all 2^(2n-1) nodes, one of the hypercube
// properties the dual-cube retains.
func HamiltonianCycle(n int) ([]int, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, err
	}
	return rt.HamiltonianCycle()
}

// AllToAll performs the total (all-to-all personalized) exchange in 2n
// rounds: element i sends in[i][j] to element j, and out[j][i] = in[i][j]
// — a distributed matrix transpose.
func AllToAll[T any](n int, in [][]T) ([][]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return AllToAllOn(rt, in)
}

// NTT computes the 2^(2n-1)-point number-theoretic transform (the FFT over
// the prime field mod 998244353) of coeffs on D_n, or its inverse; a
// demonstration of running a "normal" hypercube butterfly algorithm through
// the recursive presentation at 6n-5 communication steps.
func NTT(n int, coeffs []uint64, invert bool) ([]uint64, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return NTTOn(rt, coeffs, invert)
}

// PolyMulMod multiplies two polynomials with coefficients mod 998244353
// using three distributed NTTs on D_n.
func PolyMulMod(n int, a, b []uint64) ([]uint64, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return PolyMulModOn(rt, a, b)
}

// AllToAllV is the variable-size total exchange: element i sends the
// (possibly empty) slice in[i][j] to element j, in 2n rounds;
// out[j][i] = in[i][j].
func AllToAllV[T any](n int, in [][][]T) ([][][]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return AllToAllVOn(rt, in)
}

// SampleSort sorts k·2^(2n-1) keys by parallel sample sort: local sorts,
// an all-gather of regular samples, and one variable-size total exchange —
// 4n communication rounds instead of bitonic sort's Θ(n²) steps, at the
// price of data-dependent load balance.
func SampleSort[K cmp.Ordered](n, k int, keys []K) ([]K, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return SampleSortOn(rt, k, keys)
}

// SampleSortFunc is SampleSort with a user comparison.
func SampleSortFunc[K any](n, k int, keys []K, less func(a, b K) bool) ([]K, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return SampleSortFuncOn(rt, k, keys, less)
}

// ReduceScatter combines the element-wise contributions of all elements
// (out[j] = in[0][j] ⊕ ... ⊕ in[N-1][j], in source order) and leaves each
// element with its own combined entry, in 2n rounds.
func ReduceScatter[T any](n int, in [][]T, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	rt, err := defaultRuntime(n)
	if err != nil {
		return nil, Stats{}, err
	}
	return ReduceScatterOn(rt, in, identity, combine)
}
