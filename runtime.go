package dualcube

import (
	"cmp"
	"fmt"

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

// Runtime is a reusable execution handle for one D_n. It binds the
// process-wide cached topology (one immutable *DualCube per order, shared by
// every caller). Every operation is a compiled schedule plus a kernel, run
// on the direct kernel executor: the first run of an operation compiles its
// schedule and builds the order's node tables, both cached per order, and
// every later run only looks them up (Warm does both ahead of time).
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
	// whichever family NewRuntimeOn selected. Every generalized operation
	// (prefix, sort, broadcast, all-reduce) routes through it.
	c topology.Comm
	// d is the concrete dual-cube when c is the dualcube family, nil
	// otherwise; operations not yet generalized beyond the dual-cube
	// require it and reject other families with a clear error.
	d *topology.DualCube
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
	return &Runtime{c: d, d: d}, nil
}

// Families returns the topology family identifiers NewRuntimeOn accepts, in
// stable order: "dualcube", "hypercube", "zcube".
func Families() []string { return topology.Families() }

// NewRuntimeOn returns the execution handle for one communication topology:
// family is "dualcube", "hypercube" (Q_{2n-1}) or "zcube" (Z_n), and n the
// dual-cube order, so all three handles of the same order run over the same
// node count 2^(2n-1) and the same block data layout. Prefix, Sort,
// SortLarge, Broadcast, AllReduce and their Func variants run on any
// family; the remaining operations are dual-cube-only for now and return
// an error on other families.
func NewRuntimeOn(family string, n int) (*Runtime, error) {
	c, err := topology.CommByID(family, n)
	if err != nil {
		return nil, err
	}
	d, _ := c.(*topology.DualCube)
	return &Runtime{c: c, d: d}, nil
}

// defaultRuntimes backs the package-level one-shot functions: one Runtime
// per order, built eagerly beside the topology cache so one-shot calls pay
// no lookup synchronization.
var defaultRuntimes [topology.MaxDualCubeOrder + 1]Runtime

func init() {
	for n := 1; n <= topology.MaxDualCubeOrder; n++ {
		d, _ := topology.Shared(n)
		defaultRuntimes[n] = Runtime{c: d, d: d}
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

// Network returns the dual-cube topology handle for structural queries, or
// nil when the Runtime is bound to another family (use Comm instead).
func (rt *Runtime) Network() *Network {
	if rt.d == nil {
		return nil
	}
	return &Network{d: rt.d}
}

// dualOrder returns the dual-cube order for operations that have not been
// generalized beyond the dual-cube family, rejecting other topologies.
func (rt *Runtime) dualOrder(op string) (int, error) {
	if rt.d == nil {
		return 0, fmt.Errorf("dualcube: %s is only implemented on the dualcube family, not %s", op, rt.c.Name())
	}
	return rt.d.Order(), nil
}

// recursive returns the bound topology's recursive presentation, which the
// sort family requires.
func (rt *Runtime) recursive(op string) (topology.Recursive, error) {
	if r, ok := rt.c.(topology.Recursive); ok {
		return r, nil
	}
	return nil, fmt.Errorf("dualcube: %s needs a recursive presentation, which %s does not carry", op, rt.c.Name())
}

// Warm pre-compiles the schedule of every operation in the dcomm.Op enum
// for this order and builds the order's node tables, removing the
// schedule-compilation and table-building cost from each operation's first
// run. The normal-algorithm sweeps behind NTTOn and PolyMulModOn are not
// Ops and compile on their first run. The returned error is nil for every
// operation in the Op enum; it exists so compilation failures surface to
// callers instead of panicking.
func (rt *Runtime) Warm() error {
	for op := dcomm.OpPrefix; op < dcomm.OpEnd; op++ {
		if _, err := dcomm.Compiled(rt.c, op); err != nil {
			return err
		}
	}
	rt.c.Tables()
	if rt.d != nil {
		// Pre-build the arena layout table the payload-plane collectives
		// index by; like the schedules it is cached per order and shared.
		collective.WarmLayout(rt.d)
	}
	return nil
}

// Barrier synchronizes all nodes of the Runtime's network; it completes
// only after every node has entered it (2n communication steps).
func (rt *Runtime) Barrier() (Stats, error) {
	return collective.BarrierOn(rt.cfg, rt.c)
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
	return prefix.DPrefixOn(rt.cfg, rt.c, in, monoid.Sum[T](), true, nil)
}

// PrefixFuncOn is PrefixOn under an arbitrary associative operation with
// identity; combine is applied strictly in element order. Set inclusive to
// false for the diminished prefix.
func PrefixFuncOn[T any](rt *Runtime, in []T, identity func() T, combine func(a, b T) T, inclusive bool) ([]T, Stats, error) {
	return prefix.DPrefixOn(rt.cfg, rt.c, in, mono(identity, combine), inclusive, nil)
}

// PrefixDegradedOn is PrefixOn on a network degraded by plan's permanent
// link faults; see PrefixDegraded.
func PrefixDegradedOn[T monoid.Number](rt *Runtime, in []T, plan *FaultPlan) ([]T, Stats, error) {
	n, err := rt.dualOrder("PrefixDegraded")
	if err != nil {
		return nil, Stats{}, err
	}
	return prefix.DPrefixDegraded(rt.cfg, n, in, monoid.Sum[T](), true, plan)
}

// PrefixDegradedFuncOn is PrefixDegradedOn for an arbitrary monoid.
func PrefixDegradedFuncOn[T any](rt *Runtime, in []T, identity func() T, combine func(a, b T) T, inclusive bool, plan *FaultPlan) ([]T, Stats, error) {
	n, err := rt.dualOrder("PrefixDegradedFunc")
	if err != nil {
		return nil, Stats{}, err
	}
	return prefix.DPrefixDegraded(rt.cfg, n, in, mono(identity, combine), inclusive, plan)
}

// PrefixLargeOn computes prefix sums of an input with k elements per node.
func PrefixLargeOn[T monoid.Number](rt *Runtime, k int, in []T) ([]T, Stats, error) {
	n, err := rt.dualOrder("PrefixLarge")
	if err != nil {
		return nil, Stats{}, err
	}
	return prefix.DPrefixLarge(rt.cfg, n, k, in, monoid.Sum[T](), true)
}

// PrefixLargeFuncOn is PrefixLargeOn for an arbitrary monoid.
func PrefixLargeFuncOn[T any](rt *Runtime, k int, in []T, identity func() T, combine func(a, b T) T, inclusive bool) ([]T, Stats, error) {
	n, err := rt.dualOrder("PrefixLargeFunc")
	if err != nil {
		return nil, Stats{}, err
	}
	return prefix.DPrefixLarge(rt.cfg, n, k, in, mono(identity, combine), inclusive)
}

// PrefixSegmentedOn computes the inclusive segmented prefix; see
// PrefixSegmented.
func PrefixSegmentedOn[T any](rt *Runtime, values []T, heads []bool, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	n, err := rt.dualOrder("PrefixSegmented")
	if err != nil {
		return nil, Stats{}, err
	}
	return prefix.DPrefixSegmented(rt.cfg, n, values, heads, mono(identity, combine))
}

// SortOn sorts 2^(2n-1) ordered keys on rt's network with Algorithm 3.
func SortOn[K cmp.Ordered](rt *Runtime, keys []K, ord Order) ([]K, Stats, error) {
	r, err := rt.recursive("Sort")
	if err != nil {
		return nil, Stats{}, err
	}
	return sortnet.DSortOn(rt.cfg, r, keys, func(a, b K) bool { return a < b }, ord, nil)
}

// SortFuncOn sorts arbitrary records under a user comparison.
func SortFuncOn[K any](rt *Runtime, keys []K, less func(a, b K) bool, ord Order) ([]K, Stats, error) {
	r, err := rt.recursive("SortFunc")
	if err != nil {
		return nil, Stats{}, err
	}
	return sortnet.DSortOn(rt.cfg, r, keys, less, ord, nil)
}

// SortLargeOn sorts k·2^(2n-1) keys, k per node, on rt's network: the
// Algorithm 3 schedule with merge-split in place of compare-exchange.
func SortLargeOn[K cmp.Ordered](rt *Runtime, k int, keys []K, ord Order) ([]K, Stats, error) {
	r, err := rt.recursive("SortLarge")
	if err != nil {
		return nil, Stats{}, err
	}
	return sortnet.DSortLargeOn(rt.cfg, r, k, keys, func(a, b K) bool { return a < b }, ord)
}

// SortLargeFuncOn is SortLargeOn with a user comparison.
func SortLargeFuncOn[K any](rt *Runtime, k int, keys []K, less func(a, b K) bool, ord Order) ([]K, Stats, error) {
	r, err := rt.recursive("SortLargeFunc")
	if err != nil {
		return nil, Stats{}, err
	}
	return sortnet.DSortLargeOn(rt.cfg, r, k, keys, less, ord)
}

// BroadcastOn delivers value from node root to every node in 2n steps.
func BroadcastOn[T any](rt *Runtime, root int, value T) ([]T, Stats, error) {
	return collective.BroadcastOn(rt.cfg, rt.c, root, value)
}

// AllReduceOn combines all elements in order and delivers the total to
// every node, in 2n steps.
func AllReduceOn[T any](rt *Runtime, in []T, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	return collective.AllReduceOn(rt.cfg, rt.c, in, mono(identity, combine))
}

// AllReduceSumOn is AllReduceOn specialised to addition.
func AllReduceSumOn[T monoid.Number](rt *Runtime, in []T) ([]T, Stats, error) {
	return collective.AllReduceOn(rt.cfg, rt.c, in, monoid.Sum[T]())
}

// GatherOn collects every element to root in element order.
func GatherOn[T any](rt *Runtime, root int, in []T) ([]T, Stats, error) {
	n, err := rt.dualOrder("Gather")
	if err != nil {
		return nil, Stats{}, err
	}
	return collective.Gather(rt.cfg, n, root, in)
}

// ScatterOn distributes in (element order) from root.
func ScatterOn[T any](rt *Runtime, root int, in []T) ([]T, Stats, error) {
	n, err := rt.dualOrder("Scatter")
	if err != nil {
		return nil, Stats{}, err
	}
	return collective.Scatter(rt.cfg, n, root, in)
}

// AllGatherOn delivers the whole element sequence to every node.
func AllGatherOn[T any](rt *Runtime, in []T) ([][]T, Stats, error) {
	n, err := rt.dualOrder("AllGather")
	if err != nil {
		return nil, Stats{}, err
	}
	return collective.AllGather(rt.cfg, n, in)
}

// AllToAllOn performs the total exchange: out[j][i] = in[i][j].
func AllToAllOn[T any](rt *Runtime, in [][]T) ([][]T, Stats, error) {
	n, err := rt.dualOrder("AllToAll")
	if err != nil {
		return nil, Stats{}, err
	}
	return collective.AllToAll(rt.cfg, n, in)
}

// AllToAllVOn is the variable-size total exchange.
func AllToAllVOn[T any](rt *Runtime, in [][][]T) ([][][]T, Stats, error) {
	n, err := rt.dualOrder("AllToAllV")
	if err != nil {
		return nil, Stats{}, err
	}
	return collective.AllToAllV(rt.cfg, n, in)
}

// ReduceScatterOn combines element-wise contributions and leaves each node
// its own combined entry.
func ReduceScatterOn[T any](rt *Runtime, in [][]T, identity func() T, combine func(a, b T) T) ([]T, Stats, error) {
	n, err := rt.dualOrder("ReduceScatter")
	if err != nil {
		return nil, Stats{}, err
	}
	return collective.ReduceScatter(rt.cfg, n, in, mono(identity, combine))
}

// PermuteOn routes values[i] to slot dests[i].
func PermuteOn[T any](rt *Runtime, dests []int, values []T) ([]T, Stats, error) {
	n, err := rt.dualOrder("Permute")
	if err != nil {
		return nil, Stats{}, err
	}
	return sortnet.Permute(rt.cfg, n, dests, values)
}

// SampleSortOn sorts k·2^(2n-1) keys by parallel sample sort.
func SampleSortOn[K cmp.Ordered](rt *Runtime, k int, keys []K) ([]K, Stats, error) {
	n, err := rt.dualOrder("SampleSort")
	if err != nil {
		return nil, Stats{}, err
	}
	return samplesort.Sort(rt.cfg, n, k, keys, func(a, b K) bool { return a < b })
}

// SampleSortFuncOn is SampleSortOn with a user comparison.
func SampleSortFuncOn[K any](rt *Runtime, k int, keys []K, less func(a, b K) bool) ([]K, Stats, error) {
	n, err := rt.dualOrder("SampleSortFunc")
	if err != nil {
		return nil, Stats{}, err
	}
	return samplesort.Sort(rt.cfg, n, k, keys, less)
}

// NTTOn computes the 2^(2n-1)-point number-theoretic transform of coeffs,
// or its inverse.
func NTTOn(rt *Runtime, coeffs []uint64, invert bool) ([]uint64, Stats, error) {
	n, err := rt.dualOrder("NTT")
	if err != nil {
		return nil, Stats{}, err
	}
	return ntt.Transform(rt.cfg, n, coeffs, invert)
}

// PolyMulModOn multiplies two polynomials with coefficients mod 998244353.
func PolyMulModOn(rt *Runtime, a, b []uint64) ([]uint64, Stats, error) {
	n, err := rt.dualOrder("PolyMulMod")
	if err != nil {
		return nil, Stats{}, err
	}
	return ntt.PolyMul(rt.cfg, n, a, b)
}
