package dcomm

import (
	"fmt"
	"sort"
	"sync"

	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Op names one operation whose communication skeleton is compiled to a
// machine.Schedule. The cluster-technique collectives compile to
// StepClusterDim/StepCrossHop sequences; the recursive-technique D_sort
// compiles its 3-cycle recursive-dimension rounds to oriented StepRecDim
// steps (OpDSort), the one ladder both sort kernels — compare-exchange for
// one key per node, merge-split for SortLarge's chunks — run over. The
// node programs still outside the IR (emulate's ascend/descend framework
// and the link-fault relay DimExchangeFT) call machine.RecDimExchange.
type Op uint8

const (
	// OpPrefix is Algorithm 2: ascending cluster sweep, cross hop, ascending
	// sweep of the received totals, cross hop, class-1 local fold.
	OpPrefix Op = iota
	// OpAllReduce is the all-reduce: two ascending sweeps bracketed by cross
	// hops, plus the final local class-total combine.
	OpAllReduce
	// OpBroadcast is the binomial flood: ascending sweeps and cross hops,
	// no local round.
	OpBroadcast
	// OpGather collects toward a root: descending (fan-in) sweeps and cross
	// hops.
	OpGather
	// OpScatter is Gather's mirror: cross hop first, then ascending
	// (fan-out) sweeps.
	OpScatter
	// OpAllGather doubles bundles along ascending sweeps and cross hops,
	// plus a final local merge round.
	OpAllGather
	// OpAllToAll is the dimension-ordered personalized exchange: ascending
	// routing sweeps and cross hops.
	OpAllToAll
	// OpDSort is Algorithm 3 (D_sort): the flattened bitonic-merge ladder of
	// recursive-dimension compare-exchanges — one cross step for dimension 0
	// and a 3-cycle StepRecDim per higher dimension — 2n²-n compare-exchange
	// steps, 6n²-7n+2 communication cycles (Theorem 2). At level l every
	// sub-dual-cube of order l merges at once: its four quarters arrive
	// sorted alternately ascending and descending, the half-merge turns
	// them into a bitonic sequence, and the final merge sorts it in the
	// direction the enclosing level needs.
	OpDSort
	opCount
	// OpEnd is one past the last operation, for iterating all schedules
	// (for op := OpPrefix; op < OpEnd; op++).
	OpEnd = opCount
)

// String returns the operation name used in schedule labels.
func (op Op) String() string {
	switch op {
	case OpPrefix:
		return "prefix"
	case OpAllReduce:
		return "allreduce"
	case OpBroadcast:
		return "broadcast"
	case OpGather:
		return "gather"
	case OpScatter:
		return "scatter"
	case OpAllGather:
		return "allgather"
	case OpAllToAll:
		return "alltoall"
	case OpDSort:
		return "dsort"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// schedKey identifies one compiled schedule: a topology family at a
// dual-cube order, and an operation — or, for the bitonic baseline, the
// network's name at order -1. Keying by (family, order) instead of a
// concrete topology pointer lets every Comm implementation share the cache
// machinery, and the small struct key makes the lookup allocation-free.
type schedKey struct {
	family string
	order  int
	op     Op
}

// schedCache holds the compiled fault-free schedule per (topology, op).
// Schedules are immutable and tiny (one Step per communication round), so
// they are built at most once per process and shared by every run. A plain
// map behind an RWMutex (rather than sync.Map) keeps the hot-path read
// allocation-free: sync.Map would box the struct key on every Load, which
// the ≤16 allocs/op direct-executor guards cannot afford.
var (
	schedMu    sync.RWMutex
	schedCache = make(map[schedKey]*machine.Schedule)
)

// Compiled returns the cached fault-free schedule of op on c, building it on
// first use. Any Comm family works — dual-cube, odd-dimensional hypercube,
// Z-cube — and each (family, order, op) cell is compiled at most once, with
// first-store-wins keeping the published pointer stable under concurrent
// warm-up. The returned Schedule is shared and must not be mutated; use
// RewriteFT to derive a fault-annotated variant. An error means op names no
// schedule-compiled operation (a value outside the Op enum) or the topology
// lacks the structure op needs; nothing is cached in that case.
func Compiled(c topology.Comm, op Op) (*machine.Schedule, error) {
	if op >= opCount {
		return nil, fmt.Errorf("dcomm: no schedule builder for %s", op)
	}
	key := schedKey{family: c.Family(), order: c.Order(), op: op}
	if sch := cached(key); sch != nil {
		return sch, nil
	}
	sch, err := buildSchedule(c, op)
	if err != nil {
		return nil, err
	}
	return publish(key, sch), nil
}

// cached returns the schedule published under key, or nil.
func cached(key schedKey) *machine.Schedule {
	schedMu.RLock()
	defer schedMu.RUnlock()
	return schedCache[key]
}

// publish caches sch under key and returns the cached schedule: if a
// concurrent build won the race, its pointer is kept.
func publish(key schedKey, sch *machine.Schedule) *machine.Schedule {
	schedMu.Lock()
	defer schedMu.Unlock()
	if prior, ok := schedCache[key]; ok {
		return prior
	}
	schedCache[key] = sch
	return sch
}

// MustCompiled is Compiled, panicking on error. Intended for tests and
// examples where op is a literal enum value.
func MustCompiled(c topology.Comm, op Op) *machine.Schedule {
	sch, err := Compiled(c, op)
	if err != nil {
		panic(err)
	}
	return sch
}

// buildSchedule lays out the cluster-technique skeleton of op on c. The
// pattern id of a step is its cluster dimension, or ClusterDim(c) for the
// cross matching — steps with equal pattern use the identical matching.
// Nothing here is dual-cube-specific: the steps are expressed entirely in
// the Comm decomposition (cluster dimensions, the cross matching, recursive
// dimensions), so one builder serves every family.
func buildSchedule(c topology.Comm, op Op) (*machine.Schedule, error) {
	m := c.ClusterDim()
	sch := &machine.Schedule{Name: fmt.Sprintf("%s/%s", op, c.Name()), D: c}
	cluster := func(dim int) {
		sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepClusterDim, Dim: dim, Pattern: dim})
	}
	ascend := func() {
		for i := 0; i < m; i++ {
			cluster(i)
		}
	}
	descend := func() {
		for i := m - 1; i >= 0; i-- {
			cluster(i)
		}
	}
	cross := func() {
		sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepCrossHop, Dim: -1, Pattern: m})
	}
	local := func() {
		sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepLocalCombine, Dim: -1, Pattern: -1})
	}

	switch op {
	case OpPrefix, OpAllReduce, OpAllGather:
		ascend()
		cross()
		ascend()
		cross()
		local()
	case OpBroadcast, OpAllToAll:
		ascend()
		cross()
		ascend()
		cross()
	case OpGather:
		descend()
		cross()
		descend()
		cross()
	case OpScatter:
		cross()
		ascend()
		cross()
		ascend()
	case OpDSort:
		// Algorithm 3 flattened into merges: the level-1 base sort over
		// dim 0, then per level l = 2..n a half-merge over dims 2l-3..0
		// and a final merge over dims 2l-2..0. A merge over dims top..0
		// runs ascending or descending by sort-ID bit top+1 — the
		// alternation of the enclosing block — except the outermost merge,
		// which runs in the requested Order. Dimension 0 is a plain cross
		// hop; every higher dimension is a 3-cycle recursive-dimension
		// exchange. Patterns offset by m so RecDim matchings never collide
		// with the cross hop.
		if _, ok := c.(topology.Recursive); !ok {
			return nil, fmt.Errorf("dcomm: %s has no recursive presentation; dsort needs a topology.Recursive", c.Name())
		}
		n := c.Order()
		merge := func(top int) {
			orient := machine.OrientBit(top + 1)
			if top == 2*n-2 {
				orient = machine.OrientByOrder
			}
			for j := top; j >= 0; j-- {
				kind, pattern := machine.StepRecDim, m+j
				if j == 0 {
					kind, pattern = machine.StepCrossHop, m
				}
				sch.Steps = append(sch.Steps, machine.Step{Kind: kind, Dim: j, Pattern: pattern, Orient: orient})
			}
		}
		merge(0)
		for l := 2; l <= n; l++ {
			merge(2*l - 3)
			merge(2*l - 2)
		}
	default:
		return nil, fmt.Errorf("dcomm: no schedule builder for %s", op)
	}
	sch.Finalize()
	return sch, nil
}

// CompiledCubeSort returns the cached bitonic-sort schedule on t: stages
// k = 1..q, each a descending sweep of StepBitDim exchanges over dimensions
// k-1..0 — q(q+1)/2 compare-exchange steps, q = log2(t.Nodes()). Stage k
// is oriented by node bit k (the 2^k-block alternation), the last stage by
// the requested Order, so one schedule serves both orders; the sort IDs
// are the node IDs. A single-node network compiles to the empty schedule.
//
// Any topology whose bit-dimension matchings are all edges works (the
// hypercube, of any dimension — even ones included, unlike the Comm
// surface); the builder verifies every u—u^2^j pair before caching and
// returns an error for networks such as the dual-cube or Z-cube whose edge
// set does not contain all bit flips.
func CompiledCubeSort(t topology.Topology) (*machine.Schedule, error) {
	name := t.Name()
	key := schedKey{family: name, order: -1}
	if sch := cached(key); sch != nil {
		return sch, nil
	}
	N := t.Nodes()
	q := 0
	for 1<<q < N {
		q++
	}
	if 1<<q != N {
		return nil, fmt.Errorf("dcomm: cubesort needs a power-of-two node count, %s has %d", name, N)
	}
	for j := 0; j < q; j++ {
		for u := 0; u < N; u++ {
			if w := u ^ 1<<j; u < w && !t.HasEdge(u, w) {
				return nil, fmt.Errorf("dcomm: cubesort needs every bit-dimension matching to be links, but %d-%d (dimension %d) is not a link of %s", u, w, j, name)
			}
		}
	}
	sch := &machine.Schedule{Name: fmt.Sprintf("cubesort/%s", name), Topo: t}
	for k := 1; k <= q; k++ {
		orient := machine.OrientBit(k)
		if k == q {
			orient = machine.OrientByOrder
		}
		for j := k - 1; j >= 0; j-- {
			sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepBitDim, Dim: j, Pattern: j, Orient: orient})
		}
	}
	sch.Finalize()
	return publish(key, sch), nil
}

// RewriteFT derives the degraded-mode variant of a compiled schedule under a
// fault view: every exchange step whose matching is severed by the view is
// annotated with the broken-pair mask and the canonical detour relays, which
// the machine interpreter appends after the matched cycle. Steps sharing an
// exchange pattern share the annotation slices, so the repair schedule of a
// pattern is planned exactly once. A clean view returns sch itself.
//
// An error means the faults disconnect a severed pair entirely — impossible
// for f <= n-1 link faults (the link connectivity of D_n is n).
func RewriteFT(sch *machine.Schedule, view *fault.View) (*machine.Schedule, error) {
	if view.Clean() {
		return sch, nil
	}
	for i := range sch.Steps {
		switch sch.Steps[i].Kind {
		case machine.StepRecDim, machine.StepBitDim:
			return nil, fmt.Errorf("dcomm: %s: fault rewrite supports only cluster-technique schedules (step %d is %s)", sch.Name, i, sch.Steps[i].Kind)
		}
	}
	d := sch.D
	m := d.ClusterDim()

	// One annotation per exchange pattern, planned lazily.
	type annotation struct {
		broken  []bool
		detours []machine.Detour
		cycles  int
	}
	plans := make(map[int]*annotation, m+1)
	planFor := func(pattern int) (*annotation, error) {
		if a, ok := plans[pattern]; ok {
			return a, nil
		}
		partner := func(u int) int { return d.CrossNeighbor(u) }
		if pattern < m {
			partner = func(u int) int { return d.ClusterNeighbor(u, pattern) }
		}
		broken, dets, err := planMatching(d, view, partner)
		if err != nil {
			return nil, err
		}
		a := &annotation{broken: broken}
		for _, dt := range dets {
			a.detours = append(a.detours, machine.Detour{Path: dt.Path, Back: dt.back})
			a.cycles += 2 * (len(dt.Path) - 1)
		}
		plans[pattern] = a
		return a, nil
	}

	out := &machine.Schedule{Name: sch.Name + "+ft", D: d}
	out.Steps = append([]machine.Step(nil), sch.Steps...)
	for i := range out.Steps {
		s := &out.Steps[i]
		if s.Kind == machine.StepLocalCombine {
			continue
		}
		a, err := planFor(s.Pattern)
		if err != nil {
			return nil, err
		}
		if len(a.detours) > 0 || anyBroken(a.broken) {
			s.Broken = a.broken
			s.Detours = a.detours
			out.RepairCycles += a.cycles
		}
	}
	return out, nil
}

func anyBroken(broken []bool) bool {
	for _, b := range broken {
		if b {
			return true
		}
	}
	return false
}

// planMatching computes the broken-pair mask and the canonical detour list
// of one perfect matching under view: pairs are visited in ascending lower
// endpoint order and repaired over the deterministic shortest alive path all
// nodes agree on, sorted by normalized endpoints — the serial repair order
// every node executes identically. The repair paths come from the view's
// BFS over the full topology, so families with extra links beyond the
// decomposition (the hypercube's unused dimensions, the Z-cube's foreign
// links) get correspondingly shorter detours.
func planMatching(t topology.Topology, view *fault.View, partner func(u int) int) ([]bool, []Detour, error) {
	broken := make([]bool, t.Nodes())
	var dets []Detour
	for u := 0; u < t.Nodes(); u++ {
		w := partner(u)
		if u < w && view.LinkDown(u, w) {
			pair := fault.Link{U: u, V: w}.Normalize()
			path := view.Path(pair.U, pair.V)
			if path == nil {
				return nil, nil, fmt.Errorf("dcomm: faults disconnect %d and %d, no repair path exists", pair.U, pair.V)
			}
			broken[u], broken[w] = true, true
			back := make([]int, len(path))
			for i, x := range path {
				back[len(path)-1-i] = x
			}
			dets = append(dets, Detour{Pair: pair, Path: path, back: back})
		}
	}
	sort.Slice(dets, func(i, j int) bool {
		a, b := dets[i].Pair, dets[j].Pair
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	return broken, dets, nil
}

// PatternDetours enumerates a fault-rewritten schedule's repair relays once
// per exchange pattern (steps reusing a pattern share detours, so iterating
// steps directly would double-count). The fault-free schedule yields none.
func PatternDetours(sch *machine.Schedule) []machine.Detour {
	seen := make(map[int]bool)
	var out []machine.Detour
	for i := range sch.Steps {
		s := &sch.Steps[i]
		if s.Kind == machine.StepLocalCombine || seen[s.Pattern] {
			continue
		}
		seen[s.Pattern] = true
		out = append(out, s.Detours...)
	}
	return out
}
