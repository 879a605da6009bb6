// Package schedcheck statically verifies compiled communication schedules
// against the paper's structural invariants — without running the machine.
// Where the simulator exercises one (input, seed) point per test, the checker
// walks every step of every schedule dcomm.Compiled can produce and proves
// table-level properties that hold for all runs:
//
//   - partner tables are involutions: every exchange step is a perfect
//     matching, so the 1-port model is respected (at most one link per node
//     per step) and SendRecv pairs agree;
//   - cluster steps pair along the declared cluster dimension and stay inside
//     a class; the cross step pairs each node with its opposite-class twin;
//   - link indexes point at the partner inside the node's ascending neighbor
//     row, so the interpreter's table fast path and the engine's CSR rows name
//     the same wire;
//   - the prefix schedule fits Theorem 1: 2n communication steps plus one
//     local combine, total 2n+1;
//   - the sort schedule fits Theorem 2: Algorithm 3's merge ladder in exactly
//     DSortCompSteps(n) = 2n²-n compare-exchange steps whose communication
//     cost is exactly DSortCommSteps(n) = 6n²-7n+2 cycles (each StepRecDim
//     is the 3-cycle routed exchange), with every recursive-dimension
//     matching the involution r ↔ r^(1<<j) and every step oriented as its
//     merge requires; the hypercube baseline fits q(q+1)/2 single-cycle
//     steps;
//   - the normal-algorithm sweeps fit Section 7: on D_n 2n-1 unoriented
//     steps, the cross hop then StepRecDim over dimensions 1..2n-2, in
//     exactly 6n-5 cycles; on Q_q q single-cycle StepBitDim steps;
//   - fault rewrites (dcomm.RewriteFT) annotate exactly the severed pairs of
//     each matching, repair them over alive simple detours of at most 7 hops
//     (for f <= n-1 faults), and account RepairCycles exactly — and refuse
//     the recursive-technique sort and sweep schedules, whose 3-cycle
//     choreography has no static detour form.
//
// cmd/dcvet runs Verify over n = 2..7 alongside the source analyzers, making
// "every schedule the runtime can compile is well-formed" part of vetting.
package schedcheck

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/emulate"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// maxDetourHops bounds a repair path under f <= n-1 link faults. A severed
// cluster link has m-1 alternate in-cluster detours of 3 hops (flip another
// cluster dimension, the severed one, flip back). A severed cross link is the
// hard case: a detour must cross between classes three times (a class-0
// segment only moves field part I, a class-1 segment only part II, so the
// class bit needs crossings and each field excursion needs undoing), making
// its shortest detour exactly 7 hops — also the exact length for D_2, which
// is an 8-ring whose only detour is the long way around. The checker enforces
// 7 as the ceiling across the verified fault battery; Theorem 2's claim that
// degraded-mode overhead stays a constant number of cycles per fault rests on
// this not regressing.
const maxDetourHops = 7

// Check compiles op on c and verifies the fault-free schedule's structure.
func Check(c topology.Comm, op dcomm.Op) error {
	sch, err := dcomm.Compiled(c, op)
	if err != nil {
		return err
	}
	if err := CheckSchedule(sch, c, op); err != nil {
		return err
	}
	if sch.RepairCycles != 0 {
		return fmt.Errorf("schedcheck: %s: fault-free schedule has RepairCycles %d", sch.Name, sch.RepairCycles)
	}
	for i := range sch.Steps {
		if s := &sch.Steps[i]; s.Broken != nil || s.Detours != nil {
			return fmt.Errorf("schedcheck: %s step %d: fault-free schedule carries fault annotations", sch.Name, i)
		}
	}
	return nil
}

// stepShape is one expected step of an operation's skeleton.
type stepShape struct {
	kind machine.StepKind
	dim  int // cluster dimension, or -1
}

// shapeOf lays out the expected step sequence of op on a cube with cluster
// dimension m — the cluster-technique skeleton the paper's algorithms share.
func shapeOf(op dcomm.Op, m int) ([]stepShape, error) {
	var steps []stepShape
	cluster := func(dim int) { steps = append(steps, stepShape{machine.StepClusterDim, dim}) }
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
	cross := func() { steps = append(steps, stepShape{machine.StepCrossHop, -1}) }
	local := func() { steps = append(steps, stepShape{machine.StepLocalCombine, -1}) }
	switch op {
	case dcomm.OpPrefix, dcomm.OpAllReduce, dcomm.OpAllGather:
		ascend()
		cross()
		ascend()
		cross()
		local()
	case dcomm.OpBroadcast, dcomm.OpAllToAll:
		ascend()
		cross()
		ascend()
		cross()
	case dcomm.OpGather:
		descend()
		cross()
		descend()
		cross()
	case dcomm.OpScatter:
		cross()
		ascend()
		cross()
		ascend()
	default:
		return nil, fmt.Errorf("schedcheck: no expected shape for %s", op)
	}
	return steps, nil
}

// CheckSchedule verifies sch's step sequence and finalized exchange tables
// against c and op's expected skeleton, generically over any communication
// topology (dual-cube, hypercube, Z-cube): every invariant is phrased in
// terms of the Comm decomposition, so one proof covers all families. It
// accepts a fault-rewritten variant too (annotations are CheckFT's
// business); structural invariants are identical for both.
func CheckSchedule(sch *machine.Schedule, c topology.Comm, op dcomm.Op) error {
	n, m, N := c.Order(), c.ClusterDim(), c.Nodes()
	if sch.D != c {
		return fmt.Errorf("schedcheck: %s: schedule bound to %s, want %s", sch.Name, sch.D.Name(), c.Name())
	}
	shape, err := shapeOf(op, m)
	if err != nil {
		return err
	}
	if len(sch.Steps) != len(shape) {
		return fmt.Errorf("schedcheck: %s: %d steps, want %d", sch.Name, len(sch.Steps), len(shape))
	}
	if got := sch.CommSteps(); got != 2*n {
		return fmt.Errorf("schedcheck: %s: %d communication steps, want 2n = %d", sch.Name, got, 2*n)
	}
	if len(sch.Steps) > 2*n+1 {
		return fmt.Errorf("schedcheck: %s: %d total steps exceed the Theorem 1 budget 2n+1 = %d", sch.Name, len(sch.Steps), 2*n+1)
	}

	// The skeleton's matchings keep to the Comm decomposition: a cluster
	// dimension pairs inside the cluster, the cross matching across classes.
	for u := 0; u < N; u++ {
		if p := c.CrossNeighbor(u); c.Class(p) == c.Class(u) {
			return fmt.Errorf("schedcheck: %s: cross matching pairs %d and %d of the same class", sch.Name, u, p)
		}
		for j := 0; j < m; j++ {
			if p := c.ClusterNeighbor(u, j); c.Class(p) != c.Class(u) || !c.SameCluster(u, p) {
				return fmt.Errorf("schedcheck: %s: cluster dimension %d pairs %d outside %d's cluster", sch.Name, j, p, u)
			}
		}
	}

	firstByPattern := make(map[int]*machine.Step, m+1)
	patternUses := make(map[int]int, m+1)
	for i := range sch.Steps {
		s := &sch.Steps[i]
		want := shape[i]
		if s.Kind != want.kind {
			return fmt.Errorf("schedcheck: %s step %d: kind %s, want %s", sch.Name, i, s.Kind, want.kind)
		}
		expect := c.CrossNeighbor
		switch s.Kind {
		case machine.StepLocalCombine:
			continue
		case machine.StepClusterDim:
			if s.Dim != want.dim {
				return fmt.Errorf("schedcheck: %s step %d: dimension %d, want %d", sch.Name, i, s.Dim, want.dim)
			}
			if s.Pattern != s.Dim {
				return fmt.Errorf("schedcheck: %s step %d: pattern %d, want dimension %d", sch.Name, i, s.Pattern, s.Dim)
			}
			expect = func(u int) int { return c.ClusterNeighbor(u, s.Dim) }
		case machine.StepCrossHop:
			if s.Pattern != m {
				return fmt.Errorf("schedcheck: %s step %d: cross pattern %d, want %d", sch.Name, i, s.Pattern, m)
			}
		}
		patternUses[s.Pattern]++
		if err := checkTables(sch, i, c, firstByPattern, true, expect); err != nil {
			return err
		}
	}

	// Every exchange pattern — each cluster dimension and the cross matching —
	// appears exactly twice: once per half of the cluster-technique skeleton.
	for pat := 0; pat <= m; pat++ {
		if patternUses[pat] != 2 {
			return fmt.Errorf("schedcheck: %s: pattern %d used %d times, want 2", sch.Name, pat, patternUses[pat])
		}
	}
	return nil
}

// CheckSortSchedule verifies the compiled D_sort schedule against Theorem 2:
// Algorithm 3's flattened merge ladder — the level-1 base sort, then per
// level l = 2..n a half-merge over dims 2l-3..0 and a final merge over dims
// 2l-2..0 — as exactly DSortCompSteps(n) = 2n²-n compare-exchange steps
// whose communication cost is exactly DSortCommSteps(n) = 6n²-7n+2 cycles:
// one cycle per dimension-0 cross hop, three per StepRecDim. Every step
// must carry its merge's orientation — the half-merge of level l recursive
// bit 2l-2, the final merge bit 2l-1 (the enclosing quarter's
// alternation), the final merge of level n the requested Order — and the
// sort-ID table must be the recursive IDs the orientation bits are read
// from. The steps themselves are checkLadder's. Generic over any topology
// carrying the recursive presentation.
func CheckSortSchedule(sch *machine.Schedule, c topology.Recursive) error {
	n, m := c.Order(), c.ClusterDim()

	// The expected ladder of Algorithm 3, level by level. Dimension 0 is
	// the cross matching, every higher dimension a routed StepRecDim.
	var want []machine.Step
	sweep := func(top int, orient machine.Orient) {
		for j := top; j >= 0; j-- {
			w := machine.Step{Kind: machine.StepRecDim, Dim: j, Pattern: m + j, Orient: orient}
			if j == 0 {
				w.Kind, w.Pattern = machine.StepCrossHop, m
			}
			want = append(want, w)
		}
	}
	for l := 1; l <= n; l++ {
		if l > 1 {
			sweep(2*l-3, machine.OrientBit(2*l-2))
		}
		final := machine.OrientByOrder
		if l < n {
			final = machine.OrientBit(2*l - 1)
		}
		sweep(2*l-2, final)
	}
	if err := checkSortIDs(sch, c.Nodes(), c.ToRecursive); err != nil {
		return err
	}
	if len(want) != sortnet.DSortCompSteps(n) {
		return fmt.Errorf("schedcheck: internal: D_%d ladder has %d steps, closed form says %d", n, len(want), sortnet.DSortCompSteps(n))
	}
	if len(sch.Steps) != len(want) {
		return fmt.Errorf("schedcheck: %s: %d steps, want 2n²-n = %d", sch.Name, len(sch.Steps), len(want))
	}
	if got, want := sch.CommCycles(), sortnet.DSortCommSteps(n); got != want {
		return fmt.Errorf("schedcheck: %s: %d communication cycles, want 6n²-7n+2 = %d (Theorem 2)", sch.Name, got, want)
	}
	return checkLadder(sch, c, want)
}

// CheckSweepSchedule verifies the normal-algorithm sweep of Section 7
// (dcomm.CompiledSweep) on D_n: 2n-1 steps, a cross hop on recursive
// dimension 0 and then one StepRecDim per dimension 1..2n-2 in ascending
// order, none of them oriented and no sort-ID table, costing exactly
// emulate.CommSteps(n) = 6n-5 communication cycles. The steps themselves
// are checkLadder's.
func CheckSweepSchedule(sch *machine.Schedule, c topology.Recursive) error {
	m := c.ClusterDim()
	want := []machine.Step{{Kind: machine.StepCrossHop, Dim: 0, Pattern: m}}
	for j := 1; j < c.RecDims(); j++ {
		want = append(want, machine.Step{Kind: machine.StepRecDim, Dim: j, Pattern: m + j})
	}
	if len(sch.Steps) != len(want) {
		return fmt.Errorf("schedcheck: %s: %d steps, want 2n-1 = %d", sch.Name, len(sch.Steps), len(want))
	}
	if sch.SortIDs() != nil {
		return fmt.Errorf("schedcheck: %s: unoriented sweep carries a sort-ID table", sch.Name)
	}
	if got, want := sch.CommCycles(), emulate.CommSteps(c.Order()); got != want {
		return fmt.Errorf("schedcheck: %s: %d communication cycles, want 6n-5 = %d", sch.Name, got, want)
	}
	return checkLadder(sch, c, want)
}

// checkLadder verifies a recursive-technique schedule bound to c step by
// step against want, the expected steps (sch has as many): every step's
// kind, dimension, pattern and orientation; no fault annotations; partner
// tables finalized and shared per pattern; every recursive dimension's
// matching the involution r ↔ r^(1<<j) in recursive-ID space; dimension 0
// the cross matching over a link table, and every higher dimension
// partner-only, since its routed pairs are not adjacent.
func checkLadder(sch *machine.Schedule, c topology.Recursive, want []machine.Step) error {
	if sch.D != topology.Comm(c) {
		return fmt.Errorf("schedcheck: %s: schedule bound to %s, want %s", sch.Name, sch.D.Name(), c.Name())
	}
	if sch.RepairCycles != 0 {
		return fmt.Errorf("schedcheck: %s: fault-free schedule has RepairCycles %d", sch.Name, sch.RepairCycles)
	}
	firstByPattern := make(map[int]*machine.Step, c.RecDims())
	for i := range sch.Steps {
		if s := &sch.Steps[i]; s.Broken != nil || s.Detours != nil {
			return fmt.Errorf("schedcheck: %s step %d: fault-free schedule carries fault annotations", sch.Name, i)
		}
		if err := checkShape(sch, i, &want[i]); err != nil {
			return err
		}
		// Dimension 0 is the cross matching, over a link table; a higher
		// dimension's routed pairs are not adjacent, so its step has none.
		j := want[i].Dim
		expect := func(u int) int { return c.FromRecursive(c.ToRecursive(u) ^ 1<<j) }
		if err := checkTables(sch, i, c, firstByPattern, j == 0, expect); err != nil {
			return err
		}
	}
	return nil
}

// CheckCubeSortSchedule verifies the compiled hypercube bitonic-sort
// schedule: stages k = 1..q sweeping StepBitDim exchanges over dimensions
// k-1..0 — q(q+1)/2 steps of one cycle each — with stage k oriented by node
// bit k (the 2^k-block alternation) and stage q by the requested Order,
// and the node IDs as sort IDs. The steps themselves are
// checkCubeLadder's.
func CheckCubeSortSchedule(sch *machine.Schedule, h *topology.Hypercube) error {
	q := h.Dim()
	var want []machine.Step
	for k := 1; k <= q; k++ {
		stage := machine.OrientBit(k)
		if k == q {
			stage = machine.OrientByOrder
		}
		for j := k - 1; j >= 0; j-- {
			want = append(want, machine.Step{Kind: machine.StepBitDim, Dim: j, Pattern: j, Orient: stage})
		}
	}
	if q > 0 {
		if err := checkSortIDs(sch, h.Nodes(), func(u int) int { return u }); err != nil {
			return err
		}
	}
	if len(sch.Steps) != len(want) || len(want) != sortnet.CubeSortSteps(q) {
		return fmt.Errorf("schedcheck: %s: %d steps, want q(q+1)/2 = %d", sch.Name, len(sch.Steps), sortnet.CubeSortSteps(q))
	}
	return checkCubeLadder(sch, h, want)
}

// CheckCubeSweepSchedule verifies the hypercube baseline's normal sweep
// (dcomm.CompiledCubeSweep) on Q_q: q unoriented StepBitDim steps over
// dimensions 0..q-1 in ascending order, one cycle each, and no sort-ID
// table. The steps themselves are checkCubeLadder's.
func CheckCubeSweepSchedule(sch *machine.Schedule, h *topology.Hypercube) error {
	want := make([]machine.Step, h.Dim())
	for j := range want {
		want[j] = machine.Step{Kind: machine.StepBitDim, Dim: j, Pattern: j}
	}
	if len(sch.Steps) != len(want) {
		return fmt.Errorf("schedcheck: %s: %d steps, want q = %d", sch.Name, len(sch.Steps), len(want))
	}
	if sch.SortIDs() != nil {
		return fmt.Errorf("schedcheck: %s: unoriented sweep carries a sort-ID table", sch.Name)
	}
	return checkCubeLadder(sch, h, want)
}

// checkCubeLadder verifies a bit-dimension schedule bound to h step by step
// against want, the expected steps (sch has as many): one cycle per step,
// every step's kind, dimension, pattern and orientation, exchange tables
// finalized and shared per pattern, and every matching the hypercube
// involution u ↔ u^(1<<j) over an adjacent link.
func checkCubeLadder(sch *machine.Schedule, h *topology.Hypercube, want []machine.Step) error {
	if sch.Topology() != topology.Topology(h) {
		return fmt.Errorf("schedcheck: %s: schedule bound to the wrong topology", sch.Name)
	}
	if got := sch.CommCycles(); got != len(want) {
		return fmt.Errorf("schedcheck: %s: %d communication cycles, want %d", sch.Name, got, len(want))
	}
	firstByPattern := make(map[int]*machine.Step, h.Dim())
	for i := range sch.Steps {
		w := &want[i]
		if err := checkShape(sch, i, w); err != nil {
			return err
		}
		expect := func(u int) int { return u ^ 1<<w.Dim }
		if err := checkTables(sch, i, h, firstByPattern, true, expect); err != nil {
			return err
		}
	}
	return nil
}

// checkShape compares step i of sch with its expected shape w.
func checkShape(sch *machine.Schedule, i int, w *machine.Step) error {
	if s := &sch.Steps[i]; s.Kind != w.Kind || s.Dim != w.Dim || s.Pattern != w.Pattern || s.Orient != w.Orient {
		return fmt.Errorf("schedcheck: %s step %d: got (%s dim %d pattern %d oriented by %s), want (%s dim %d pattern %d oriented by %s)",
			sch.Name, i, s.Kind, s.Dim, s.Pattern, s.Orient, w.Kind, w.Dim, w.Pattern, w.Orient)
	}
	return nil
}

// checkTables verifies the finalized exchange tables of step i of sch, a
// matching over the nodes of t. A step whose pattern an earlier step used
// must share that step's tables, which first records and which were
// verified with it. Otherwise, node by node, the partner lies in range,
// differs from the node, pairs back (the matching is an involution) and is
// expect(u); when linked, the link index selects the partner in u's
// ascending neighbor row. A step that is not linked pairs nodes that need
// not be adjacent, so it must carry no link table.
func checkTables(sch *machine.Schedule, i int, t topology.Topology, first map[int]*machine.Step, linked bool, expect func(u int) int) error {
	s := &sch.Steps[i]
	partners, links := s.Partners(), s.LinkIndexes()
	N := t.Nodes()
	switch {
	case partners == nil || linked && links == nil:
		return fmt.Errorf("schedcheck: %s step %d: schedule not finalized (nil exchange tables)", sch.Name, i)
	case !linked && links != nil:
		return fmt.Errorf("schedcheck: %s step %d: %s step carries a link table, but its pairs are not adjacent", sch.Name, i, s.Kind)
	case len(partners) != N || linked && len(links) != N:
		return fmt.Errorf("schedcheck: %s step %d: table lengths %d/%d, want %d", sch.Name, i, len(partners), len(links), N)
	}
	if f, ok := first[s.Pattern]; ok {
		if &f.Partners()[0] != &partners[0] || linked && &f.LinkIndexes()[0] != &links[0] {
			return fmt.Errorf("schedcheck: %s step %d: pattern %d tables not shared with earlier step", sch.Name, i, s.Pattern)
		}
		return nil
	}
	first[s.Pattern] = s
	for u := 0; u < N; u++ {
		p := int(partners[u])
		switch {
		case p < 0 || p >= N:
			return fmt.Errorf("schedcheck: %s step %d: node %d partner %d out of range", sch.Name, i, u, p)
		case p == u:
			return fmt.Errorf("schedcheck: %s step %d: node %d paired with itself", sch.Name, i, u)
		case int(partners[p]) != u:
			return fmt.Errorf("schedcheck: %s step %d: matching not an involution at %d: partner %d pairs back to %d", sch.Name, i, u, p, partners[p])
		case p != expect(u):
			return fmt.Errorf("schedcheck: %s step %d: node %d partner %d, want %d", sch.Name, i, u, p, expect(u))
		}
		if linked {
			if row, li := t.Neighbors(u), int(links[u]); li < 0 || li >= len(row) || row[li] != p {
				return fmt.Errorf("schedcheck: %s step %d: node %d link index %d does not select partner %d", sch.Name, i, u, li, p)
			}
		}
	}
	return nil
}

// checkSortIDs verifies a sort schedule's finalized node → sort-ID table
// against the sort-ID map of its topology.
func checkSortIDs(sch *machine.Schedule, N int, sortID func(u int) int) error {
	ids := sch.SortIDs()
	if len(ids) != N {
		return fmt.Errorf("schedcheck: %s: sort-ID table has %d entries, want %d", sch.Name, len(ids), N)
	}
	for u, r := range ids {
		if want := sortID(u); int(r) != want {
			return fmt.Errorf("schedcheck: %s: node %d has sort ID %d, want %d", sch.Name, u, r, want)
		}
	}
	return nil
}

// CheckFT verifies a RewriteFT output against its base schedule and fault
// view: annotations mark exactly the severed pairs, detours repair them over
// alive simple paths in canonical order, and the repair-cycle account is
// exact. f is the plan's link-fault budget; for f <= n-1 the detour length
// bound of maxDetourHops is enforced.
func CheckFT(ft, base *machine.Schedule, view *fault.View, f int) error {
	d := base.D
	n, N := d.Order(), d.Nodes()
	if view.Clean() {
		if ft != base {
			return fmt.Errorf("schedcheck: %s: clean view must return the base schedule unchanged", ft.Name)
		}
		return nil
	}
	if ft == base {
		return fmt.Errorf("schedcheck: %s: faulty view returned the shared base schedule", base.Name)
	}
	if ft.D != d {
		return fmt.Errorf("schedcheck: %s: rewrite bound to %s, want %s", ft.Name, ft.D.Name(), d.Name())
	}
	if len(ft.Steps) != len(base.Steps) {
		return fmt.Errorf("schedcheck: %s: rewrite has %d steps, base %d", ft.Name, len(ft.Steps), len(base.Steps))
	}

	wantRepair := 0
	for i := range ft.Steps {
		s, b := &ft.Steps[i], &base.Steps[i]
		if s.Kind != b.Kind || s.Dim != b.Dim || s.Pattern != b.Pattern {
			return fmt.Errorf("schedcheck: %s step %d: rewrite altered the step skeleton", ft.Name, i)
		}
		if s.Kind == machine.StepLocalCombine {
			continue
		}
		partners := s.Partners()
		if partners == nil || &partners[0] != &b.Partners()[0] {
			return fmt.Errorf("schedcheck: %s step %d: rewrite does not share the base exchange tables", ft.Name, i)
		}

		// The severed pairs of this matching, normalized u < partner.
		severed := make(map[[2]int]bool)
		for u := 0; u < N; u++ {
			p := int(partners[u])
			if u < p && view.LinkDown(u, p) {
				severed[[2]int{u, p}] = true
			}
		}
		if len(severed) == 0 {
			if s.Broken != nil || s.Detours != nil {
				return fmt.Errorf("schedcheck: %s step %d: annotations on an unsevered matching", ft.Name, i)
			}
			continue
		}
		if s.Broken == nil {
			return fmt.Errorf("schedcheck: %s step %d: matching severed %d pair(s) but carries no annotations", ft.Name, i, len(severed))
		}
		for u := 0; u < N; u++ {
			down := view.LinkDown(u, int(partners[u]))
			if s.Broken[u] != down {
				return fmt.Errorf("schedcheck: %s step %d: Broken[%d] = %v, want %v", ft.Name, i, u, s.Broken[u], down)
			}
		}
		if len(s.Detours) != len(severed) {
			return fmt.Errorf("schedcheck: %s step %d: %d detours for %d severed pairs", ft.Name, i, len(s.Detours), len(severed))
		}
		prevU, prevV := -1, -1
		for k := range s.Detours {
			dt := &s.Detours[k]
			if err := checkDetour(d, view, dt, severed, n, f); err != nil {
				return fmt.Errorf("schedcheck: %s step %d detour %d: %w", ft.Name, i, k, err)
			}
			u, v := dt.Path[0], dt.Path[len(dt.Path)-1]
			if u < prevU || (u == prevU && v <= prevV) {
				return fmt.Errorf("schedcheck: %s step %d: detours not in canonical endpoint order", ft.Name, i)
			}
			prevU, prevV = u, v
			delete(severed, [2]int{u, v})
			wantRepair += 2 * (len(dt.Path) - 1)
		}
		if len(severed) != 0 {
			return fmt.Errorf("schedcheck: %s step %d: %d severed pair(s) left without a detour", ft.Name, i, len(severed))
		}
	}

	if ft.RepairCycles != wantRepair {
		return fmt.Errorf("schedcheck: %s: RepairCycles %d, want %d (sum of 2·hops over step detours)", ft.Name, ft.RepairCycles, wantRepair)
	}
	// Each pattern appears twice and a link belongs to one pattern, so f
	// faults sever at most f pairs, each repaired twice per schedule over at
	// most maxDetourHops hops each way.
	if f <= n-1 {
		if limit := 2 * 2 * maxDetourHops * f; ft.RepairCycles > limit {
			return fmt.Errorf("schedcheck: %s: RepairCycles %d exceed the f<=n-1 bound %d", ft.Name, ft.RepairCycles, limit)
		}
	}
	return nil
}

// checkDetour verifies one repair relay: endpoints are a severed pair of the
// step's matching, the path is a simple alive walk of adjacent nodes joining
// them, Back is its exact reverse, and under the paper's fault budget the
// length respects the maxDetourHops ceiling.
func checkDetour(d topology.Comm, view *fault.View, dt *machine.Detour, severed map[[2]int]bool, n, f int) error {
	if len(dt.Path) < 3 {
		return fmt.Errorf("path %v too short to avoid the severed link", dt.Path)
	}
	u, v := dt.Path[0], dt.Path[len(dt.Path)-1]
	if u >= v || !severed[[2]int{u, v}] {
		return fmt.Errorf("endpoints (%d,%d) are not an unclaimed severed pair of this matching", u, v)
	}
	seen := make(map[int]bool, len(dt.Path))
	for i, x := range dt.Path {
		if seen[x] {
			return fmt.Errorf("path %v revisits node %d", dt.Path, x)
		}
		seen[x] = true
		if i == 0 {
			continue
		}
		prev := dt.Path[i-1]
		if !d.HasEdge(prev, x) {
			return fmt.Errorf("path %v hops %d->%d across a non-edge", dt.Path, prev, x)
		}
		if view.LinkDown(prev, x) {
			return fmt.Errorf("path %v relays over the down link %d-%d", dt.Path, prev, x)
		}
	}
	if len(dt.Back) != len(dt.Path) {
		return fmt.Errorf("Back length %d != Path length %d", len(dt.Back), len(dt.Path))
	}
	for i, x := range dt.Back {
		if x != dt.Path[len(dt.Path)-1-i] {
			return fmt.Errorf("Back %v is not Path %v reversed", dt.Back, dt.Path)
		}
	}
	if f <= n-1 && len(dt.Path)-1 > maxDetourHops {
		return fmt.Errorf("detour %v takes %d hops, over the %d-hop ceiling for %d faults on %s", dt.Path, len(dt.Path)-1, maxDetourHops, f, d.Name())
	}
	return nil
}

// ftSeeds are the fault plans exercised per (order, op): the repository's
// standard experiment seed and one contrasting draw.
var ftSeeds = []int64{2008, 42}

// Verify runs the full static battery for every communication family
// (dual-cube, hypercube, Z-cube) at every order in [minOrder, maxOrder]:
// all cluster-technique operations' fault-free schedules plus RewriteFT
// variants under f = 1 and f = n-1 random link faults per seed; the D_sort
// schedule against Theorem 2's exact step and cycle counts and the normal
// sweep against Section 7's 6n-5 cycles, with the assertion that RewriteFT
// refuses to annotate either; and the hypercube bitonic-sort and sweep
// baselines for every q up to 2·maxOrder-1 (the dimension whose node count
// matches D_maxOrder). The f = n-1 fault budget is sound on all
// three families because each contains D_n as a spanning subgraph, so its
// link connectivity is at least n (λ(D_n) = n per Zhao/Hao/Cheng).
func Verify(minOrder, maxOrder int) error {
	for _, family := range topology.Families() {
		for n := minOrder; n <= maxOrder; n++ {
			c, err := topology.CommByID(family, n)
			if err != nil {
				return err
			}
			if err := VerifyComm(c); err != nil {
				return err
			}
		}
	}
	for q := 0; q <= 2*maxOrder-1; q++ {
		h, err := topology.NewHypercube(q)
		if err != nil {
			return err
		}
		sch, err := dcomm.CompiledCubeSort(h)
		if err != nil {
			return err
		}
		if err := CheckCubeSortSchedule(sch, h); err != nil {
			return err
		}
		if sch, err = dcomm.CompiledCubeSweep(h); err != nil {
			return err
		}
		if err := CheckCubeSweepSchedule(sch, h); err != nil {
			return err
		}
	}
	return nil
}

// VerifyComm runs the per-topology battery on one communication topology:
// every operation's fault-free schedule, the Theorem 2 sort ladder, the
// normal sweep, and the fault-rewrite checks under the standard seeds and
// budgets.
func VerifyComm(c topology.Comm) error {
	n := c.Order()
	for op := dcomm.OpPrefix; op < dcomm.OpEnd; op++ {
		base, err := dcomm.Compiled(c, op)
		if err != nil {
			return err
		}
		if op == dcomm.OpDSort {
			r, ok := c.(topology.Recursive)
			if !ok {
				return fmt.Errorf("schedcheck: %s compiled a sort schedule without a recursive presentation", c.Name())
			}
			if err := CheckSortSchedule(base, r); err != nil {
				return err
			}
			sweep := dcomm.CompiledSweep(r)
			if err := CheckSweepSchedule(sweep, r); err != nil {
				return err
			}
			// The recursive-technique choreography has no static detour
			// form; the rewrite must refuse both ladders, never mis-annotate.
			view := fault.NewView(c, fault.Random(c, 1, ftSeeds[0]))
			for _, sch := range []*machine.Schedule{base, sweep} {
				if _, err := dcomm.RewriteFT(sch, view); err == nil {
					return fmt.Errorf("schedcheck: %s: RewriteFT accepted a recursive-technique schedule", sch.Name)
				}
			}
			continue
		}
		if err := Check(c, op); err != nil {
			return err
		}
		for _, f := range faultBudgets(n) {
			for _, seed := range ftSeeds {
				view := fault.NewView(c, fault.Random(c, f, seed))
				ft, err := dcomm.RewriteFT(base, view)
				if err != nil {
					return fmt.Errorf("schedcheck: %s f=%d seed=%d: %w", base.Name, f, seed, err)
				}
				if err := CheckFT(ft, base, view, f); err != nil {
					return fmt.Errorf("f=%d seed=%d: %w", f, seed, err)
				}
				if err := CheckSchedule(ft, c, op); err != nil {
					return fmt.Errorf("f=%d seed=%d: %w", f, seed, err)
				}
			}
		}
	}
	return nil
}

// faultBudgets returns the link-fault counts verified per order: a single
// fault and the paper's maximum tolerated budget n-1.
func faultBudgets(n int) []int {
	if n <= 2 {
		return []int{1}
	}
	return []int{1, n - 1}
}
