package collective

import (
	"reflect"
	"sync"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// This file is the host side of the zero-alloc payload plane: the arena
// orders that make the binomial collectives' bundles contiguous, and the
// process-wide plane stash that makes warm calls allocation-free.
//
// Arena orders. Gather descends the cluster dimensions (fan-in from the
// high bit) and scatter ascends them (fan-out from the low bit), so their
// in-flight bundles are combs in natural element order — {w : w ≡ u on the
// processed low bits} — which become CONTIGUOUS runs when each address
// field is stored bit-reversed. The gather/scatter arena therefore places
// node u's slot at
//
//	pos(u) = class(u)<<(2m) | rev_m(cluster(u))<<m | rev_m(local(u))
//
// under which every phase-1/3 merge unions two adjacent runs, every
// phase-2/4 split is a midpoint halving, and the class halves of phases
// 1 and 4 are the two halves of the whole arena. AllGather's ascending
// doubling frees LOW local bits first, so its bundles are contiguous in
// the natural element order already and it uses DataIndex directly.

// planeLayout is the per-order arena order of the gather/scatter plane:
// posOf[u] is node u's arena slot. It is type-independent and cached
// forever beside the topology.
type planeLayout struct {
	posOf []int32
}

var (
	layoutMu sync.Mutex
	layouts  = map[int]*planeLayout{}
)

// layoutFor returns (building once per order) the bit-reversed arena order
// for c's gather/scatter plane. The order is the key: every Comm family of
// one order shares the class/cluster/local addressing the layout reads.
func layoutFor(c topology.Comm) *planeLayout {
	layoutMu.Lock()
	defer layoutMu.Unlock()
	if lay, ok := layouts[c.Order()]; ok {
		return lay
	}
	m := c.ClusterDim()
	pos := make([]int32, c.Nodes())
	for u := range pos {
		pos[u] = int32(c.Class(u)<<(2*m) | revBits(c.ClusterID(u), m)<<m | revBits(c.LocalID(u), m))
	}
	lay := &planeLayout{posOf: pos}
	layouts[c.Order()] = lay
	return lay
}

// revBits reverses the low m bits of v.
func revBits(v, m int) int {
	r := 0
	for j := 0; j < m; j++ {
		r = r<<1 | (v>>j)&1
	}
	return r
}

// WarmLayout precomputes the arena order for c so a Runtime's Warm removes
// the one-time table build from the first gather/scatter call.
func WarmLayout(c topology.Comm) { layoutFor(c) }

// planeKey identifies one stashed plane: its kind, the node count it was
// sized for, and the element type it carries.
type planeKey struct {
	kind  uint8 // 0 = extent plane, 1 = route plane
	nodes int
	typ   reflect.Type
}

// stash is a single-slot plane cache per (kind, nodes, element type): a
// warm call checks its plane out (one mutex round, no allocation), a
// finishing call puts it back. Unlike sync.Pool nothing is dropped on GC,
// so the warm-path allocation count is deterministic — which the alloc
// guards pin. Concurrent calls of the same shape simply build a second
// plane and the later Put wins; correctness never depends on a hit.
var (
	stashMu sync.Mutex
	stash   = map[planeKey]any{}
)

func stashGet(k planeKey) any {
	stashMu.Lock()
	v, ok := stash[k]
	if ok {
		delete(stash, k)
	}
	stashMu.Unlock()
	return v
}

func stashPut(k planeKey, v any) {
	stashMu.Lock()
	stash[k] = v
	stashMu.Unlock()
}

// extentPlane checks an n-node extent plane for element type T out of the
// stash, or builds one.
func extentPlane[T any](n int) *machine.ExtentPlane[T] {
	k := planeKey{kind: 0, nodes: n, typ: reflect.TypeOf((*T)(nil))}
	if v := stashGet(k); v != nil {
		pl := v.(*machine.ExtentPlane[T])
		pl.Reset()
		return pl
	}
	return machine.NewExtentPlane[T](n)
}

// putExtentPlane returns a plane to the stash. The arena is cleared first
// so a stashed plane retains no caller values (T may hold pointers).
func putExtentPlane[T any](n int, pl *machine.ExtentPlane[T]) {
	clear(pl.Vals)
	stashPut(planeKey{kind: 0, nodes: n, typ: reflect.TypeOf((*T)(nil))}, pl)
}

// routePlane checks an n-node route plane for element type T out of the
// stash, or builds one.
func routePlane[T any](n int) *machine.RoutePlane[T] {
	k := planeKey{kind: 1, nodes: n, typ: reflect.TypeOf((*T)(nil))}
	if v := stashGet(k); v != nil {
		pl := v.(*machine.RoutePlane[T])
		pl.Reset()
		return pl
	}
	return machine.NewRoutePlane[T](n)
}

// putRoutePlane returns a route plane to the stash, dropping caller values
// from the arena first.
func putRoutePlane[T any](n int, pl *machine.RoutePlane[T]) {
	clear(pl.Vals)
	stashPut(planeKey{kind: 1, nodes: n, typ: reflect.TypeOf((*T)(nil))}, pl)
}
