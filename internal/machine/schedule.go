package machine

import (
	"fmt"
	"slices"
	"strconv"

	"dualcube/internal/topology"
)

// This file is the compiled-schedule IR of the cluster technique and its
// interpreter. The paper's Section 3 skeleton — work inside clusters (n-1
// steps), hop the cross-edges (1 step), work inside the opposite-class
// clusters (n-1 steps), hop back (1 step) — recurs near-verbatim in prefix
// computation and in every collective. Instead of each algorithm re-deriving
// partners and fault detours inline, the skeleton is compiled once per
// (order, operation) into a Schedule: a flat list of steps, each naming an
// exchange pattern (a cluster dimension or the cross-edge matching) plus
// optional fault annotations. On the engine every node walks the schedule
// through the interpreter (kernelProgram), which looks partners up in the
// finalized tables, executes the communication cycle, and runs the detour
// repairs of a fault-rewritten schedule — one interpreter for the
// fault-free and the degraded case alike.

// StepKind classifies one step of a compiled schedule.
type StepKind uint8

const (
	// StepClusterDim is a perfect-matching exchange along one cluster
	// dimension: every node pairs with ClusterNeighbor(u, Dim). One cycle,
	// plus repair relays when the step carries fault annotations.
	StepClusterDim StepKind = iota
	// StepCrossHop is the cross-edge matching: every node pairs with
	// CrossNeighbor(u). One cycle, plus repairs.
	StepCrossHop
	// StepRecDim is a recursive-dimension matching (D_sort, Algorithm 3):
	// every node pairs with the node whose recursive ID differs in bit Dim,
	// for Dim >= 1 (recursive dimension 0 is the cross matching and compiles
	// to StepCrossHop). Half the pairs are physically adjacent and the other
	// half relay through two cross-edges, so the parallel exchange takes
	// three cycles and 2N messages — Section 6's three-time-unit
	// compare-and-exchange. Fault annotations are not supported: the relay
	// choreography already uses every cross-edge, so there is no alive
	// matching left to detour over, and dcomm.RewriteFT rejects schedules
	// containing this kind.
	StepRecDim
	// StepBitDim is a hypercube dimension matching: every node pairs with
	// u^(1<<Dim) — the compare-exchange round of the bitonic baseline on
	// Q_q. One cycle; fault annotations are not supported.
	StepBitDim
	// StepLocalCombine is a computation-only round: no clock cycle, only
	// Ops accounting (the amount is program-dependent — e.g. the class-1
	// fold of D_prefix's step 5 is one round on half the nodes).
	StepLocalCombine
)

// String returns a short step-kind label for diagnostics.
func (k StepKind) String() string {
	switch k {
	case StepClusterDim:
		return "clusterDim"
	case StepCrossHop:
		return "crossHop"
	case StepRecDim:
		return "recDim"
	case StepBitDim:
		return "bitDim"
	default:
		return "localCombine"
	}
}

// Detour is one broken pair's repair relay: the alive path joining the two
// endpoints, forward and (precomputed, so node programs stay alloc-free)
// backward. The machine is deliberately ignorant of how the path was chosen;
// the fault view lives a layer above (internal/dcomm rewrites schedules from
// internal/fault views), keeping the interpreter free of the fault package.
type Detour struct {
	Path []int // Path[0] and Path[len-1] are the severed pair's endpoints
	Back []int // Path reversed
}

// Orient orients one compare-exchange step of a sorting schedule: it names
// the bit of each node's sort ID (Schedule.SortIDs) that decides whether
// the node's merge runs ascending (bit 0) or descending (bit 1), or defers
// to the run's requested order for the outermost merge. The zero value
// means the step is not oriented, which is every cluster-technique step.
type Orient int8

// OrientByOrder orients a step by the run's requested order: the steps of
// the outermost merge, whose direction is the caller's, not a sort-ID bit's.
const OrientByOrder Orient = -1

// OrientBit orients a step by bit b of each node's sort ID.
func OrientBit(b int) Orient { return Orient(b + 1) }

// Bit returns the sort-ID bit that orients the step, or -1 for a step
// oriented by the requested order (or not oriented at all).
func (o Orient) Bit() int {
	if o > 0 {
		return int(o) - 1
	}
	return -1
}

// String names the orientation in diagnostics: "bit b", "order", or
// "bit -1" for a step that is not oriented.
func (o Orient) String() string {
	if o == OrientByOrder {
		return "order"
	}
	return "bit " + strconv.Itoa(o.Bit())
}

// Step is one step of a compiled schedule. Fault-free schedules leave
// Broken and Detours nil; a fault rewrite fills them in for the exchange
// patterns severed by the fault view, and steps sharing a pattern share the
// annotation slices.
type Step struct {
	Kind StepKind
	// Dim is the dimension the step pairs along: the cluster dimension of a
	// StepClusterDim (0 <= Dim < n-1), the recursive dimension of a
	// StepRecDim, the bit of a StepBitDim. A cross hop has Dim -1, except in
	// a sort schedule, where it is recursive dimension 0.
	Dim int
	// Orient is the compare-exchange orientation of a sort schedule's step;
	// zero (not oriented) everywhere else.
	Orient Orient
	// Pattern identifies the exchange pattern: Dim for a cluster step,
	// ClusterDim(n) for the cross matching. Steps with equal Pattern use the
	// same matching and therefore the same fault annotations; consumers that
	// report per-pattern data (detour counts, repair paths) deduplicate on it.
	Pattern int
	// Broken marks, per node, a pair severed by the armed fault view: both
	// endpoints idle through the matched cycle and are served by a Detours
	// relay afterwards. nil means the step is fault-free.
	Broken []bool
	// Detours are the repair relays appended after the matched cycle, in
	// canonical (normalized endpoint pair) order so every node runs the
	// identical serial repair schedule.
	Detours []Detour

	// partners[u] is u's partner in this step's matching and links[u] that
	// partner's position in u's ascending neighbor row — precomputed by
	// Schedule.Finalize and shared across steps with equal Pattern, so both
	// executors resolve them by table lookup instead of per-cycle
	// arithmetic and binary search. nil on a schedule that was never
	// finalized, which neither executor runs.
	partners []int32
	links    []int32
}

// Partners exposes the finalized partner table (partners[u] = u's partner in
// this step's matching), or nil if the schedule was not finalized. The slice
// is the step's own table, not a copy — callers such as the static schedule
// verifier must treat it as read-only.
func (s *Step) Partners() []int32 { return s.partners }

// LinkIndexes exposes the finalized link table (links[u] = the partner's
// position in u's ascending neighbor row), or nil if the schedule was not
// finalized. Read-only, like Partners.
func (s *Step) LinkIndexes() []int32 { return s.links }

// Schedule is the compiled communication skeleton of one operation, built
// once and cached per (order, operation) by internal/dcomm. A Schedule is
// immutable after construction and shared by every run.
type Schedule struct {
	Name string
	// D is the communication topology the schedule is compiled for — any
	// Comm family (dual-cube, odd-dimensional hypercube, Z-cube). Cluster,
	// cross and recursive-dimension steps require it; nil for schedules
	// bound to a plain network through Topo (the bitonic baseline, which
	// needs only bit-dimension matchings).
	D topology.Comm
	// Topo binds a schedule compiled for a non-Comm network. nil for
	// Comm-derived schedules, which set D.
	Topo  topology.Topology
	Steps []Step
	// RepairCycles is the extra clock cycles the fault annotations append
	// over the fault-free schedule: the sum over steps of 2·(path length − 1)
	// per detour. Zero for a fault-free schedule.
	RepairCycles int

	// sortIDs[u] is node u's sort ID, the address its oriented steps read
	// their orientation bit from and the position of its key in a sorted
	// sequence: the recursive ID on a Comm schedule, the node ID on a
	// schedule bound through Topo (the bitonic baseline). Built by Finalize
	// when any step is oriented; nil on every other schedule.
	sortIDs []int32
}

// SortIDs exposes the finalized node → sort-ID table of a sort schedule,
// or nil if no step is oriented or the schedule was not finalized.
// Read-only, like Step.Partners.
func (s *Schedule) SortIDs() []int32 { return s.sortIDs }

// Topology returns the network the schedule is compiled for: Topo when set,
// otherwise the communication topology D.
func (s *Schedule) Topology() topology.Topology {
	if s.Topo != nil {
		return s.Topo
	}
	return s.D
}

// Finalize precomputes every exchange step's partner and link-index tables,
// shared across steps with equal Pattern, and the sort-ID table of a
// schedule with oriented steps. The cost is paid once per cached schedule;
// it requires the topology's neighbor rows to be ascending (the Topology
// contract, and the order the engine's CSR rows use), and leaves the tables
// nil, so that both executors refuse the schedule, if a row is not or a
// partner is not adjacent.
func (s *Schedule) Finalize() {
	type tables struct{ partners, links []int32 }
	byPattern := make(map[int]tables)
	topo := s.Topology()
	n := topo.Nodes()
	if slices.ContainsFunc(s.Steps, func(st Step) bool { return st.Orient != 0 }) {
		s.sortIDs = make([]int32, n)
		for u := range s.sortIDs {
			s.sortIDs[u] = int32(u)
			if s.D != nil {
				s.sortIDs[u] = int32(s.D.ToRecursive(u))
			}
		}
	}
	for i := range s.Steps {
		st := &s.Steps[i]
		if st.Kind == StepLocalCombine || st.partners != nil {
			continue
		}
		if t, ok := byPattern[st.Pattern]; ok {
			st.partners, st.links = t.partners, t.links
			continue
		}
		partners := make([]int32, n)
		if st.Kind == StepRecDim {
			// Half of a recursive-dimension matching's pairs are not
			// physically adjacent (they relay through two cross-edges), so
			// only the partner table exists; links stay nil and the
			// executors run the 3-cycle choreography instead of a link write.
			d := s.D
			if d == nil {
				return // bound through Topo, no Comm: leave unfinalized
			}
			for u := 0; u < n; u++ {
				partners[u] = int32(d.FromRecursive(d.ToRecursive(u) ^ 1<<st.Dim))
			}
			byPattern[st.Pattern] = tables{partners, nil}
			st.partners = partners
			continue
		}
		links := make([]int32, n)
		for u := 0; u < n; u++ {
			var p int
			switch st.Kind {
			case StepClusterDim:
				p = s.D.ClusterNeighbor(u, st.Dim)
			case StepCrossHop:
				p = s.D.CrossNeighbor(u)
			default: // StepBitDim
				p = u ^ 1<<st.Dim
			}
			partners[u] = int32(p)
			idx := -1
			prev := -1
			for j, w := range topo.Neighbors(u) {
				if w <= prev {
					return // row not ascending: leave this schedule unfinalized
				}
				prev = w
				if w == p {
					idx = j
				}
			}
			if idx < 0 {
				return // partner not adjacent: leave this schedule unfinalized
			}
			links[u] = int32(idx)
		}
		byPattern[st.Pattern] = tables{partners, links}
		st.partners, st.links = partners, links
	}
}

// CommSteps returns the number of communication steps (non-local steps) of
// the fault-free schedule.
func (s *Schedule) CommSteps() int {
	k := 0
	for i := range s.Steps {
		if s.Steps[i].Kind != StepLocalCombine {
			k++
		}
	}
	return k
}

// CommCycles returns the clock cycles the fault-free schedule's
// communication steps take: one per matched exchange, three per
// recursive-dimension step (Section 6's routed compare-and-exchange). The
// repair cycles of a fault rewrite come on top (RepairCycles).
func (s *Schedule) CommCycles() int {
	k := 0
	for i := range s.Steps {
		switch s.Steps[i].Kind {
		case StepLocalCombine:
		case StepRecDim:
			k += 3
		default:
			k++
		}
	}
	return k
}

// checkFinalized reports the first communication step of s without a
// partner table: both executors run finalized schedules only.
func (s *Schedule) checkFinalized() error {
	for i := range s.Steps {
		if s.Steps[i].Kind != StepLocalCombine && s.Steps[i].partners == nil {
			return fmt.Errorf("machine: executors require a finalized schedule (%s step %d has no partner table)", s.Name, i)
		}
	}
	return nil
}

// kernelProgram is the engine's one node program, the schedule interpreter:
// the node walks the finalized sch, calling kern at every step exactly as
// RunDirect does, and carries out each step's communication on its links —
// the reference semantics.
func kernelProgram[T any](sch *Schedule, kern DirectKernel[T]) func(c *ctx[T]) {
	return func(c *ctx[T]) {
		u := c.id
		c.dctx = DirectCtx{u: u, node: &c.ops}
		dc := &c.dctx
		for k := range sch.Steps {
			s := &sch.Steps[k]
			if s.Kind == StepLocalCombine {
				kern.Local(dc, k, u)
				continue
			}
			role, v := kern.Produce(dc, k, u)
			if s.Kind == StepRecDim && role != DirectExchange {
				// The 3-cycle choreography has no one-sided variant; the
				// direct executor rejects the same roles.
				c.failf("node %d: recursive-dimension step %d requires a matched exchange, got role %d", u, k, role)
			}
			switch role {
			case DirectExchange:
				kern.Absorb(dc, k, u, c.exchange(sch, s, v))
			case DirectSend:
				c.sendAt(int(s.links[u]), int(s.partners[u]), v)
				c.boundary()
			case DirectRecv:
				c.boundary()
				kern.Absorb(dc, k, u, c.recvAt(int(s.links[u]), int(s.partners[u])))
			default:
				c.Idle()
			}
		}
	}
}

// exchange carries out this node's matched exchange of v in step s of sch:
// the 3-cycle routed choreography on a StepRecDim, otherwise one cycle on
// the step's link, honoring the step's fault annotations — a severed pair
// idles through the matched cycle and is served by the serial detour
// repairs instead. Send and receive steps carry no fault annotations.
func (c *ctx[T]) exchange(sch *Schedule, s *Step, v T) T {
	if s.Kind == StepRecDim {
		// RewriteFT never annotates this kind.
		return recDimExchange(c, sch.D, s.Dim, v)
	}
	u := c.id
	var r T
	if s.Broken != nil && s.Broken[u] {
		c.Idle()
	} else {
		r = c.exchangeAt(int(s.links[u]), int(s.partners[u]), v)
	}
	if s.Detours != nil {
		if got, ok := runDetours(c, s.Detours, v); ok {
			r = got
		}
	}
	return r
}

// runDetours walks a step's repair schedule: for each severed pair, relay
// the first endpoint's value to the second and then the second's value back,
// along the alive path, one hop per cycle. Every node executes the same
// cycle count; ok reports whether this node is an endpoint of some pair (at
// most one — matchings are disjoint) and received its partner's value.
func runDetours[T any](c *ctx[T], detours []Detour, v T) (T, bool) {
	var out T
	var have bool
	for i := range detours {
		dt := &detours[i]
		if got, ok := relayOneWay(c, dt.Path, v); ok {
			out, have = got, true
		}
		if got, ok := relayOneWay(c, dt.Back, v); ok {
			out, have = got, true
		}
	}
	return out, have
}

// relayOneWay moves the source's value along path, one hop per cycle
// (len(path)-1 cycles). Nodes off the path idle every cycle; relay nodes
// receive on one cycle and forward on the next; ok reports whether this node
// is the destination.
func relayOneWay[T any](c *ctx[T], path []int, v T) (T, bool) {
	u := c.ID()
	pos := -1
	for i, x := range path {
		if x == u {
			pos = i
			break
		}
	}
	last := len(path) - 1
	cur := v // the source's payload; relays overwrite it on receive
	for hop := 0; hop < last; hop++ {
		switch pos {
		case hop:
			c.Send(path[hop+1], cur)
		case hop + 1:
			cur = c.Recv(path[hop])
		default:
			c.Idle()
		}
	}
	return cur, pos == last
}

// recDimExchange performs the parallel recursive-dimension-j exchange of the
// dual-cube's recursive presentation: every node sends v to its dimension-j
// partner (in recursive-ID space) and receives the partner's value. All
// nodes of the machine must call it with the same j in the same cycle.
//
// For j = 0 every pair is a direct cross-edge and the exchange is a single
// cycle. For j > 0 half the pairs are direct links while the other half must
// route through two cross-edges, making the parallel exchange three cycles
// (Section 6's "three time-units"). Let w be a node whose class parity
// matches j (so {w, w_j} is a direct link) and v = w's cross neighbor:
//
//	cycle 1: w sends its own value on the j-link and receives both its
//	         partner's value (j-link) and v's foreign value (cross-edge);
//	         v sends its value over the cross-edge.
//	cycle 2: w relays the foreign value on the j-link and receives the
//	         foreign value relayed by its partner; v is idle.
//	cycle 3: w returns the relayed value over the cross-edge; v receives
//	         its partner's value.
//
// Every directed link carries at most one message per cycle and every node
// sends at most once per cycle; relay nodes receive on two links in cycle 1
// (the bidirectional-channel allowance). This is the choreography behind
// StepRecDim: the interpreter runs it on the engine, and RunDirect reproduces
// its accounting (3 cycles, 2N messages) without executing the relays.
func recDimExchange[T any](c *ctx[T], d topology.Comm, j int, v T) T {
	u := c.ID()
	cross := d.CrossNeighbor(u)
	if j == 0 {
		return c.Exchange(cross, v)
	}
	r := d.ToRecursive(u)
	if d.RecDirect(r, j) {
		jp := d.FromRecursive(r ^ 1<<j)
		own, foreign := c.SendRecv2(jp, v, jp, cross) // cycle 1
		relayed := c.SendRecv(jp, foreign, jp)        // cycle 2
		c.Send(cross, relayed)                        // cycle 3
		return own
	}
	c.Send(cross, v) // cycle 1
	c.Idle()         // cycle 2
	return c.Recv(cross)
}
