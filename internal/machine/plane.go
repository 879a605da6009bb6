package machine

// This file is the zero-alloc payload plane of the v-collectives: the
// variable-payload analogue of Lanes. The old representation shipped
// per-node []item bundles that grew by append on every hop; the plane
// representation keeps every value in ONE flat arena, filled by the host
// before the run, and lets the kernels move only (offset, length)
// descriptors. A collective whose routing is a split/merge of contiguous
// runs (gather, scatter, allgather under the right arena order) moves ZERO
// values during the communication steps; the total-exchange router moves
// int32 element ids through fixed per-node regions by copy. Either way the
// communication payload type is the POD Extent below, so a warm run
// allocates nothing per node or per step.
//
// Parity discipline. Extents ride RunDirect's own double-buffered payload
// arrays, so they need no plane of their own. The route kernels do write
// shared memory a partner reads — the id runs backing a step's sends — and
// those live in two send planes indexed by step parity (step&1), exactly
// like Lanes: the ids produced for step s are read by step s's absorbers
// during pass s+1, while pass s+1's producers (step s+1) write the opposite
// plane, and on either backend no node produces step s+2 (the first reuse)
// before every absorb of step s has run.

// Extent is a contiguous run [Off, Off+Len) of a payload arena — the
// communication payload of the extent-plane collectives. A zero Len is the
// empty bundle.
type Extent struct {
	Off, Len int32
}

// Merge returns the union of two adjacent extents (either order); ok is
// false when the runs are neither empty nor adjacent, in which case a is
// returned unchanged. The binomial collectives only ever union adjacent
// runs — that is the arena-order theorem their layouts encode — so a false
// here is a protocol error the kernel records for the host.
func (a Extent) Merge(b Extent) (Extent, bool) {
	switch {
	case a.Len == 0:
		return b, true
	case b.Len == 0:
		return a, true
	case b.Off == a.Off+a.Len:
		return Extent{Off: a.Off, Len: a.Len + b.Len}, true
	case a.Off == b.Off+b.Len:
		return Extent{Off: b.Off, Len: a.Len + b.Len}, true
	}
	return a, false
}

// Halves splits an extent at its midpoint. The scatter-family splits are
// always midpoint splits: the arena orders destinations so that the key bit
// a step partitions by is the top varying position of the run.
func (a Extent) Halves() (lo, hi Extent) {
	h := a.Len / 2
	return Extent{Off: a.Off, Len: h}, Extent{Off: a.Off + h, Len: a.Len - h}
}

// ExtentPlane is the payload plane of the split/merge collectives (gather,
// scatter, allgather): one value arena of exactly n elements plus per-node
// extent tables. Vals is written by the host before the run and read by the
// host after it; the kernels touch only the int32 tables, each node its own
// slot, so the plane adds no synchronization to the executor's.
type ExtentPlane[T any] struct {
	Vals []T     // the value arena, one slot per node/element (host-filled)
	Off  []int32 // per-node bundle start
	Len  []int32 // per-node bundle length; 0 = empty (the old nil bundle)
	Off2 []int32 // second per-node bundle (allgather's opposite-class plane)
	Len2 []int32
	Bad  []int32 // per-node protocol-failure marker, op-specific encoding; 0 = ok
	tab  []int32 // one backing array for the five tables, cleared by Reset
}

// NewExtentPlane allocates the plane for n nodes: two allocations total.
func NewExtentPlane[T any](n int) *ExtentPlane[T] {
	tab := make([]int32, 5*n)
	return &ExtentPlane[T]{
		Vals: make([]T, n),
		Off:  tab[0*n : 1*n : 1*n],
		Len:  tab[1*n : 2*n : 2*n],
		Off2: tab[2*n : 3*n : 3*n],
		Len2: tab[3*n : 4*n : 4*n],
		Bad:  tab[4*n : 5*n : 5*n],
		tab:  tab,
	}
}

// Nodes returns the node count the plane was allocated for.
func (p *ExtentPlane[T]) Nodes() int { return len(p.Vals) }

// Reset clears the extent tables (one memclr) for reuse. Vals needs no
// clearing — every run overwrites the arena before executing.
func (p *ExtentPlane[T]) Reset() { clear(p.tab) }

// FirstBad returns the lowest node with a recorded protocol failure and its
// marker, or (-1, 0). Kernels record markers into their own node's slot and
// keep walking the schedule; the host formats the error deterministically
// after the run, regardless of the order in which the nodes ran.
func (p *ExtentPlane[T]) FirstBad() (node int, marker int32) {
	for u, b := range p.Bad {
		if b != 0 {
			return u, b
		}
	}
	return -1, 0
}

// RoutePlane is the payload plane of the total-exchange router (alltoall,
// alltoallv): element ids — id = srcElem<<logN | dstElem — move through the
// plane while the values stay put in the flat Vals arena the host fills.
// IDs holds each node's kept buffer in a fixed stride-N region; Send is the
// pair of parity planes a step's outgoing runs are copied into (see the
// parity discipline above); VOff is the CSR offset table of alltoallv's
// variable-size bundles, indexed by id (nil for fixed-size alltoall).
type RoutePlane[T any] struct {
	Stride int        // per-node region capacity = N
	IDs    []int32    // kept ids: node u's buffer is IDs[u*Stride : u*Stride+Cnt[u]]
	Send   [2][]int32 // step&1 parity planes for outgoing runs, same geometry
	Cnt    []int32    // per-node kept count
	Bad    []int32    // per-node failure marker: id+1 = stranded id, -1 = overflow
	Vals   []T        // flat value arena, host-filled, never moved by the kernel
	VOff   []int32    // CSR value offsets per id (alltoallv); nil = one value per id
	tab    []int32    // Cnt+Bad backing, cleared by Reset
}

// NewRoutePlane allocates the id planes for n nodes (stride n). The value
// arena starts empty; hosts size it per run with GrowVals/GrowVOff, which
// allocate only when the retained capacity is too small.
func NewRoutePlane[T any](n int) *RoutePlane[T] {
	ids := make([]int32, 3*n*n)
	tab := make([]int32, 2*n)
	return &RoutePlane[T]{
		Stride: n,
		IDs:    ids[0 : n*n : n*n],
		Send:   [2][]int32{ids[n*n : 2*n*n : 2*n*n], ids[2*n*n:]},
		Cnt:    tab[0:n:n],
		Bad:    tab[n:],
		tab:    tab,
	}
}

// Nodes returns the node count the plane was allocated for.
func (p *RoutePlane[T]) Nodes() int { return p.Stride }

// Reset clears the per-node counters and markers for reuse. The id regions
// need no clearing — a run writes before it reads.
func (p *RoutePlane[T]) Reset() { clear(p.tab) }

// GrowVals sizes the value arena to exactly need elements, reusing the
// retained backing when it is large enough (the warm path) and clearing
// nothing — callers overwrite every slot they declared.
func (p *RoutePlane[T]) GrowVals(need int) []T {
	if cap(p.Vals) < need {
		p.Vals = make([]T, need)
	}
	p.Vals = p.Vals[:need]
	return p.Vals
}

// GrowVOff sizes the CSR offset table to exactly need entries, reusing the
// retained backing when possible.
func (p *RoutePlane[T]) GrowVOff(need int) []int32 {
	if cap(p.VOff) < need {
		p.VOff = make([]int32, need)
	}
	p.VOff = p.VOff[:need]
	return p.VOff
}

// FirstBad returns the lowest node with a recorded routing failure and its
// marker, or (-1, 0).
func (p *RoutePlane[T]) FirstBad() (node int, marker int32) {
	for u, b := range p.Bad {
		if b != 0 {
			return u, b
		}
	}
	return -1, 0
}
