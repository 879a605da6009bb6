package machine

// Lanes is the k-wide payload plane of a batched kernel: one contiguous row
// of k lane elements per node, double-buffered by schedule-step parity. It
// is the layout change that turns k compatible requests into one kernel
// pass — a lane kernel's payload type is []E (a row), its per-node state
// arrays are k-wide, and its Produce fills and returns the node's row for
// the step instead of a single element.
//
// The two arenas mirror RunDirect's own payload double-buffering, and the
// parity discipline is what makes returning interior slices safe: the rows
// produced for step s are read by the absorbers of step s during pass s+1,
// while pass s+1's producers (step s+1) write the opposite arena — so a row
// stays immutable from its Produce until every partner has absorbed it. A
// kernel that produced rows out of its live state arrays instead would
// overwrite a row in its own next step before every partner had read it.
// The same discipline holds on the simulator engine: the lockstep clock
// guarantees step s's absorbs complete before any node produces step s+2,
// the first reuse of the arena.
type Lanes[E any] struct {
	k   int
	buf [2][]E
}

// NewLanes allocates the payload plane for n nodes at lane width k.
func NewLanes[E any](n, k int) *Lanes[E] {
	b := make([]E, 2*n*k)
	return &Lanes[E]{k: k, buf: [2][]E{b[: n*k : n*k], b[n*k:]}}
}

// Width returns the lane width k the plane was allocated for.
func (ln *Lanes[E]) Width() int { return ln.k }

// Row returns node u's outgoing payload row for schedule step `step`, full
// width; a kernel batching fewer than k lanes re-slices it. The row is
// stable for the two passes the parity discipline above requires.
func (ln *Lanes[E]) Row(step, u int) []E {
	return ln.buf[step&1][u*ln.k : (u+1)*ln.k : (u+1)*ln.k]
}
