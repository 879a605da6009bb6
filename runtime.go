package dualcube

import (
	"cmp"

	"dualcube/internal/collective"
	"dualcube/internal/dcomm"
	"dualcube/internal/embedding"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/ntt"
	"dualcube/internal/prefix"
	"dualcube/internal/samplesort"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// Runtime is a reusable execution handle for one communication topology:
// D_n, or the odd hypercube Q_{2n-1} or Z-cube Z_n that contains it. It
// binds the process-wide cached topology (one immutable value per family
// and order, shared by every caller), and every operation runs on it as a
// compiled schedule plus a kernel, on the direct kernel executor: the first
// run of an operation compiles its schedule and builds the order's node
// tables, both cached per order, and every later run only looks them up
// (Warm does both ahead of time).
//
// A Runtime is safe for concurrent use: the topology, the node tables and
// the compiled schedules are immutable, and every run keeps its payloads in
// state of its own, so concurrent operations on the same Runtime never
// share mutable state.
//
// Because Go does not allow type parameters on methods, the generic
// operations are free functions taking the Runtime first — PrefixOn(rt, in),
// SortOn(rt, keys, ord), and so on. The package-level one-shot functions
// (Prefix, Sort, ...) are thin wrappers over a package-default Runtime per
// order, so both styles share the same caches.
type Runtime struct {
	// c is the bound communication topology — the dual-cube by default, or
	// whichever family NewRuntimeOn selected. Every operation runs on it.
	c topology.Comm
	// cfg is the execution configuration every operation passes down. It
	// is zero on every Runtime this package hands out: every operation runs
	// on the direct executor, with no faults. Only the package's tests set
	// it, to pin a backend per Runtime; every backend gives identical
	// outputs and Stats.
	cfg machine.Config
}

// NewRuntime returns the execution handle for D_n (1 <= n <= 14). The
// handle is cheap — it wraps the shared cached topology — so holding one
// per subsystem or creating them on the fly are equally fine; all handles
// of the same order share every cache.
func NewRuntime(n int) (*Runtime, error) {
	d, err := topology.Shared(n)
	if err != nil {
		return nil, err
	}
	return &Runtime{c: d}, nil
}

// Families returns the topology family identifiers NewRuntimeOn accepts, in
// stable order: "dualcube", "hypercube", "zcube".
func Families() []string { return topology.Families() }

// NewRuntimeOn returns the execution handle for one communication topology:
// family is "dualcube", "hypercube" (Q_{2n-1}) or "zcube" (Z_n), and n the
// dual-cube order, so all three handles of the same order run over the same
// node count 2^(2n-1) and the same block data layout. Every operation
// runs on every family: the schedules use only the D_n that each family
// contains as a spanning subgraph, so outputs and Stats equal the
// dual-cube's (a degraded prefix may repair over a family's extra links,
// so its Stats can differ).
func NewRuntimeOn(family string, n int) (*Runtime, error) {
	c, err := topology.CommByID(family, n)
	if err != nil {
		return nil, err
	}
	return &Runtime{c: c}, nil
}

// defaultRuntimes backs the package-level one-shot functions: one Runtime
// per order, built eagerly beside the topology cache so one-shot calls pay
// no lookup synchronization.
var defaultRuntimes [topology.MaxDualCubeOrder + 1]Runtime

func init() {
	for n := 1; n <= topology.MaxDualCubeOrder; n++ {
		d, _ := topology.Shared(n)
		defaultRuntimes[n] = Runtime{c: d}
	}
}

// defaultRuntime resolves the package-default Runtime for order n.
func defaultRuntime(n int) (*Runtime, error) {
	if n < 1 || n > topology.MaxDualCubeOrder {
		// Delegate the error wording to the shared range check.
		if _, err := topology.Shared(n); err != nil {
			return nil, err
		}
	}
	return &defaultRuntimes[n], nil
}

// Order returns the dual-cube order n of the bound topology.
func (rt *Runtime) Order() int { return rt.c.Order() }

// Nodes returns the number of nodes, 2^(2n-1).
func (rt *Runtime) Nodes() int { return rt.c.Nodes() }

// Family returns the bound topology family: "dualcube", "hypercube" or
// "zcube".
func (rt *Runtime) Family() string { return rt.c.Family() }

// Comm returns the bound communication topology.
func (rt *Runtime) Comm() topology.Comm { return rt.c }

// Warm pre-compiles the schedule of every operation in the dcomm.Op enum
// for this topology and builds the order's node tables and arena layout,
// removing the schedule-compilation and table-building cost from each
// operation's first run. The normal-algorithm sweeps behind NTTOn and
// PolyMulModOn are not Ops and compile on their first run. The returned
// error is nil for every operation in the Op enum; it exists so
// compilation failures surface to callers instead of panicking.
func (rt *Runtime) Warm() error {
	for op := dcomm.OpPrefix; op < dcomm.OpEnd; op++ {
		if _, err := dcomm.Compiled(rt.c, op); err != nil {
			return err
		}
	}
	rt.c.Tables()
	collective.WarmLayout(rt.c)
	return nil
}

// Barrier synchronizes all nodes of the Runtime's network; it completes
// only after every node has entered it (2n communication steps).
func (rt *Runtime) Barrier() (Stats, error) {
	return collective.Barrier(rt.cfg, rt.c)
}

// HamiltonianCycle returns a Hamiltonian cycle of the Runtime's network
// (n >= 2): a dilation-1 ring embedding over all 2^(2n-1) nodes. Every
// supported family contains D_n as a spanning subgraph under the identity
// addressing, so the embedded dual-cube cycle is a valid ring on all of
// them.
func (rt *Runtime) HamiltonianCycle() ([]int, error) {
	return embedding.DualCubeHamiltonianCycle(rt.c.Order())
}

// PrefixOn computes all prefix sums of in on rt's network: out[i] =
// in[0]+...+in[i], Algorithm 2 of the paper in 2n communication steps.
func PrefixOn[T monoid.Number](rt *Runtime, in []T) ([]T, Stats, error) {
	return prefix.DPrefix(rt.cfg, rt.c, in, monoid.Sum[T](), true, nil)
}

// PrefixFuncOn is PrefixOn under an arbitrary associative operation with
// identity; combine is applied strictly in element order. Set inclusive to
// false for the diminished prefix.
func PrefixFuncOn[T any](rt *Runtime, in []T, identity func() T, combine func(a, b T) T, inclusive bool) ([]T, Stats, error) {
	return prefix.DPrefix(rt.cfg, rt.c, in, mono(identity, combine), inclusive, nil)
}

// PrefixDegradedOn is PrefixOn on a network degraded by plan's permanent
// link faults; see PrefixDegraded.
func PrefixDegradedOn[T monoid.Number](rt *Runtime, in []T, plan *FaultPlan) ([]T, Stats, error) {
	return prefix.DPrefixDegraded(rt.cfg, rt.c, in, monoid.Sum[T](), true, plan)
}

// PrefixDegradedFuncOn is PrefixDegradedOn for an arbitrary monoid.
func PrefixDegradedFuncOn[T any](rt *Runtime, in []T, identity func() T, combine func(a, b T) T, inclusive bool, plan *FaultPlan) ([]T, Stats, error) {
	return prefix.DPrefixDegraded(rt.cfg, rt.c, in, mono(identity, combine), inclusive, plan)
}

// PrefixLargeOn computes prefix sums of an input with k elements per node.
func PrefixLargeOn[T monoid.Number](rt *Runtime, k int, in []T) ([]T, Stats, error) {
	return prefix.DPrefixLarge(rt.cfg, rt.c, k, in, monoid.Sum[T](), true)
}

// PrefixLargeFuncOn is PrefixLargeOn for an arbitrary monoid.
func PrefixLargeFuncOn[T any](rt *Runtime, k int, in []T, identity func() T, combine func(a, b T) T, inclusive bool) ([]T, Stats, error) {
	return prefix.DPrefixLarge(rt.cfg, rt.c, k, in, mono(identity, combine), inclusive)
}

// PrefixSegmentedOn computes the inclusive segmented prefix; see
// PrefixSegmented.
func PrefixSegmentedOn[T any](rt *Runtime, values []T, heads []bool, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	return prefix.DPrefixSegmented(rt.cfg, rt.c, values, heads, mono(identity, combine))
}

// SortOn sorts 2^(2n-1) ordered keys on rt's network with Algorithm 3.
func SortOn[K cmp.Ordered](rt *Runtime, keys []K, ord Order) ([]K, Stats, error) {
	return sortnet.DSort(rt.cfg, rt.c, keys, func(a, b K) bool { return a < b }, ord, nil)
}

// SortFuncOn sorts arbitrary records under a user comparison.
func SortFuncOn[K any](rt *Runtime, keys []K, less func(a, b K) bool, ord Order) ([]K, Stats, error) {
	return sortnet.DSort(rt.cfg, rt.c, keys, less, ord, nil)
}

// SortLargeOn sorts k·2^(2n-1) keys, k per node, on rt's network: the
// Algorithm 3 schedule with merge-split in place of compare-exchange.
func SortLargeOn[K cmp.Ordered](rt *Runtime, k int, keys []K, ord Order) ([]K, Stats, error) {
	return sortnet.DSortLarge(rt.cfg, rt.c, k, keys, func(a, b K) bool { return a < b }, ord)
}

// SortLargeFuncOn is SortLargeOn with a user comparison.
func SortLargeFuncOn[K any](rt *Runtime, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, Stats, error) {
	return sortnet.DSortLarge(rt.cfg, rt.c, k, keys, less, ord)
}

// BroadcastOn delivers value from node root to every node in 2n steps.
func BroadcastOn[T any](rt *Runtime, root int, value T) ([]T, Stats, error) {
	return collective.Broadcast(rt.cfg, rt.c, root, value)
}

// AllReduceOn combines all elements in order and delivers the total to
// every node, in 2n steps.
func AllReduceOn[T any](rt *Runtime, in []T, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	return collective.AllReduce(rt.cfg, rt.c, in, mono(identity, combine))
}

// AllReduceSumOn is AllReduceOn specialised to addition.
func AllReduceSumOn[T monoid.Number](rt *Runtime, in []T) ([]T, Stats, error) {
	return collective.AllReduce(rt.cfg, rt.c, in, monoid.Sum[T]())
}

// GatherOn collects every element to root in element order.
func GatherOn[T any](rt *Runtime, root int, in []T) ([]T, Stats, error) {
	return collective.Gather(rt.cfg, rt.c, root, in)
}

// ScatterOn distributes in (element order) from root.
func ScatterOn[T any](rt *Runtime, root int, in []T) ([]T, Stats, error) {
	return collective.Scatter(rt.cfg, rt.c, root, in)
}

// AllGatherOn delivers the whole element sequence to every node.
func AllGatherOn[T any](rt *Runtime, in []T) ([][]T, Stats, error) {
	return collective.AllGather(rt.cfg, rt.c, in)
}

// AllToAllOn performs the total exchange: out[j][i] = in[i][j].
func AllToAllOn[T any](rt *Runtime, in [][]T) ([][]T, Stats, error) {
	return collective.AllToAll(rt.cfg, rt.c, in)
}

// AllToAllVOn is the variable-size total exchange.
func AllToAllVOn[T any](rt *Runtime, in [][][]T) ([][][]T, Stats, error) {
	return collective.AllToAllV(rt.cfg, rt.c, in)
}

// ReduceScatterOn combines element-wise contributions and leaves each node
// its own combined entry.
func ReduceScatterOn[T any](rt *Runtime, in [][]T, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	return collective.ReduceScatter(rt.cfg, rt.c, in, mono(identity, combine))
}

// PermuteOn routes values[i] to slot dests[i].
func PermuteOn[T any](rt *Runtime, dests []int, values []T) ([]T, Stats, error) {
	return sortnet.Permute(rt.cfg, rt.c, dests, values)
}

// SampleSortOn sorts k·2^(2n-1) keys by parallel sample sort.
func SampleSortOn[K cmp.Ordered](rt *Runtime, k int, keys []K) ([]K, Stats, error) {
	return samplesort.Sort(rt.cfg, rt.c, k, keys, func(a, b K) bool { return a < b })
}

// SampleSortFuncOn is SampleSortOn with a user comparison.
func SampleSortFuncOn[K any](rt *Runtime, k int, keys []K, less func(a, b K) bool) ([]K, Stats, error) {
	return samplesort.Sort(rt.cfg, rt.c, k, keys, less)
}

// NTTOn computes the 2^(2n-1)-point number-theoretic transform of coeffs,
// or its inverse.
func NTTOn(rt *Runtime, coeffs []uint64, invert bool) ([]uint64, Stats, error) {
	return ntt.Transform(rt.cfg, rt.c, coeffs, invert)
}

// PolyMulModOn multiplies two polynomials with coefficients mod 998244353.
func PolyMulModOn(rt *Runtime, a, b []uint64) ([]uint64, Stats, error) {
	return ntt.PolyMul(rt.cfg, rt.c, a, b)
}
