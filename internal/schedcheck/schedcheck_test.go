package schedcheck

import (
	"slices"
	"strings"
	"testing"

	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// TestVerifyOrders runs the full static battery the dcvet driver runs: every
// operation's schedule on D_2..D_7, fault-free and under the standard fault
// plans.
func TestVerifyOrders(t *testing.T) {
	if err := Verify(2, 7); err != nil {
		t.Fatal(err)
	}
}

// TestCommStepCounts pins the exact communication-step counts of Theorem 1
// and its collective corollaries: every operation takes exactly 2n
// communication steps, and the three combining operations carry exactly one
// trailing local round (total 2n+1).
func TestCommStepCounts(t *testing.T) {
	withLocal := map[dcomm.Op]bool{
		dcomm.OpPrefix:    true,
		dcomm.OpAllReduce: true,
		dcomm.OpAllGather: true,
	}
	for n := 2; n <= 7; n++ {
		d := topology.MustDualCube(n)
		for op := dcomm.OpPrefix; op < dcomm.OpEnd; op++ {
			if op == dcomm.OpDSort {
				continue // Theorem 2 counts; pinned by TestSortScheduleCounts
			}
			sch, err := dcomm.Compiled(d, op)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, op, err)
			}
			if got := sch.CommSteps(); got != 2*n {
				t.Errorf("n=%d %s: %d comm steps, want %d", n, op, got, 2*n)
			}
			wantTotal := 2 * n
			if withLocal[op] {
				wantTotal++
			}
			if got := len(sch.Steps); got != wantTotal {
				t.Errorf("n=%d %s: %d total steps, want %d", n, op, got, wantTotal)
			}
			if withLocal[op] && sch.Steps[len(sch.Steps)-1].Kind != machine.StepLocalCombine {
				t.Errorf("n=%d %s: last step is not the local combine", n, op)
			}
		}
	}
}

// TestSortScheduleCounts pins Theorem 2 statically for D_2..D_6: the
// compiled sort schedule has exactly 2n²-n compare-exchange steps costing
// exactly 6n²-7n+2 communication cycles, proven from the step tables alone
// (CheckSortSchedule verifies every matching), without running the machine.
func TestSortScheduleCounts(t *testing.T) {
	for n := 2; n <= 6; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := dcomm.Compiled(d, dcomm.OpDSort)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := CheckSortSchedule(sch, d); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := len(sch.Steps), sortnet.DSortCompSteps(n); got != want {
			t.Errorf("n=%d: %d steps, want 2n²-n = %d", n, got, want)
		}
		if got, want := sch.CommCycles(), sortnet.DSortCommSteps(n); got != want {
			t.Errorf("n=%d: %d comm cycles, want 6n²-7n+2 = %d", n, got, want)
		}
		if got, bound := sch.CommCycles(), sortnet.PaperSortCommBound(n); got > bound {
			t.Errorf("n=%d: %d comm cycles exceed Theorem 2's 6n² = %d", n, got, bound)
		}
	}
}

// buildSortSchedule hand-builds the D_sort ladder on d, oriented and
// finalized: a private schedule the negative tests may corrupt without
// poisoning the shared dcomm cache.
func buildSortSchedule(d topology.Comm) *machine.Schedule {
	n, m := d.Order(), d.ClusterDim()
	sch := &machine.Schedule{Name: "dsort/" + d.Name(), D: d}
	merge := func(top int, orient machine.Orient) {
		for j := top; j >= 0; j-- {
			kind, pattern := machine.StepRecDim, m+j
			if j == 0 {
				kind, pattern = machine.StepCrossHop, m
			}
			sch.Steps = append(sch.Steps, machine.Step{Kind: kind, Dim: j, Pattern: pattern, Orient: orient})
		}
	}
	merge(0, machine.OrientBit(1))
	for l := 2; l <= n; l++ {
		merge(2*l-3, machine.OrientBit(2*l-2))
		final := machine.OrientBit(2*l - 1)
		if l == n {
			final = machine.OrientByOrder
		}
		merge(2*l-2, final)
	}
	sch.Finalize()
	return sch
}

// TestCheckSortScheduleCatchesTampering corrupts the compiled sort schedule
// and expects the checker to reject each corruption.
func TestCheckSortScheduleCatchesTampering(t *testing.T) {
	d := topology.MustDualCube(3)
	sch := buildSortSchedule(d)
	if err := CheckSortSchedule(sch, d); err != nil {
		t.Fatalf("pristine schedule rejected: %v", err)
	}

	var rec *machine.Step
	for i := range sch.Steps {
		if sch.Steps[i].Kind == machine.StepRecDim {
			rec = &sch.Steps[i]
			break
		}
	}
	partners := rec.Partners()
	orig := partners[0]
	partners[0] = partners[2]
	if CheckSortSchedule(sch, d) == nil {
		t.Error("tampered partner table passed verification")
	}
	partners[0] = orig

	rec.Dim++
	if CheckSortSchedule(sch, d) == nil {
		t.Error("tampered dimension passed verification")
	}
	rec.Dim--

	sch.Steps = sch.Steps[:len(sch.Steps)-1]
	if CheckSortSchedule(sch, d) == nil {
		t.Error("truncated ladder passed verification")
	}
}

// TestCheckSortScheduleCatchesMisorientation re-orients single merges of
// an otherwise pristine ladder — drifts that keep every dimension and
// matching intact, so only the orientation check can see them.
func TestCheckSortScheduleCatchesMisorientation(t *testing.T) {
	d := topology.MustDualCube(3)
	for _, tc := range []struct {
		name     string
		tamper   func(steps []machine.Step)
		got, ref string // the orientations the rejection must name
	}{
		{"level-3 half-merge oriented by recursive bit 3 instead of 4", func(steps []machine.Step) {
			// Level 3's half-merge is steps 6..9 (dims 3..0), after the
			// base sort (1 step) and level 2 (2 + 3 steps).
			for i := 6; i <= 9; i++ {
				steps[i].Orient = machine.OrientBit(3)
			}
		}, "oriented by bit 3)", "oriented by bit 4)"},
		{"outermost-merge step oriented by an ID bit instead of the requested Order", func(steps []machine.Step) {
			steps[len(steps)-1].Orient = machine.OrientBit(5)
		}, "oriented by bit 5)", "oriented by order)"},
	} {
		sch := buildSortSchedule(d)
		if sch.Steps[6].Orient != machine.OrientBit(4) || sch.Steps[9].Dim != 0 {
			t.Fatal("ladder layout changed; update the tampered step indexes")
		}
		tc.tamper(sch.Steps)
		if err := CheckSortSchedule(sch, d); err == nil {
			t.Errorf("%s: passed verification", tc.name)
		} else if !strings.Contains(err.Error(), tc.got) || !strings.Contains(err.Error(), tc.ref) {
			t.Errorf("%s: rejected for the wrong reason: %v", tc.name, err)
		}
	}

	// The hypercube baseline: its last stage must follow the requested
	// Order, not node bit q.
	q3, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := dcomm.CompiledCubeSort(q3)
	if err != nil {
		t.Fatal(err)
	}
	h := base.Topo.(*topology.Hypercube) // the instance the cached schedule is bound to
	cube := &machine.Schedule{Name: base.Name, Topo: h, Steps: append([]machine.Step(nil), base.Steps...)}
	cube.Finalize() // rebuilds only the sort-ID table; the shared matchings are read, never written
	if err := CheckCubeSortSchedule(cube, h); err != nil {
		t.Fatalf("pristine cube schedule rejected: %v", err)
	}
	cube.Steps[len(cube.Steps)-1].Orient = machine.OrientBit(3)
	if err := CheckCubeSortSchedule(cube, h); err == nil || !strings.Contains(err.Error(), "oriented by bit 3)") {
		t.Errorf("cube final stage oriented by node bit 3: err = %v, want an orientation rejection", err)
	}
}

// buildPrefixSchedule hand-builds the prefix skeleton on d — any Comm
// family, since the cluster technique runs over the embedded D_n skeleton —
// finalized: a private schedule the negative tests may corrupt without
// poisoning the shared dcomm cache.
func buildPrefixSchedule(d topology.Comm) *machine.Schedule {
	m := d.ClusterDim()
	sch := &machine.Schedule{Name: "prefix/" + d.Name(), D: d}
	for half := 0; half < 2; half++ {
		for i := 0; i < m; i++ {
			sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepClusterDim, Dim: i, Pattern: i})
		}
		sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepCrossHop, Dim: -1, Pattern: m})
	}
	sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepLocalCombine, Dim: -1, Pattern: -1})
	sch.Finalize()
	return sch
}

// TestCheckScheduleCatchesTamperedPartner corrupts one entry of a finalized
// partner table and expects the involution/matching checks to reject it.
func TestCheckScheduleCatchesTamperedPartner(t *testing.T) {
	d := topology.MustDualCube(3)
	sch := buildPrefixSchedule(d)
	if err := CheckSchedule(sch, d, dcomm.OpPrefix); err != nil {
		t.Fatalf("pristine schedule rejected: %v", err)
	}

	partners := sch.Steps[0].Partners()
	orig := partners[0]
	partners[0] = partners[2] // node 0 now claims node 2's partner
	err := CheckSchedule(sch, d, dcomm.OpPrefix)
	if err == nil {
		t.Fatal("tampered partner table passed verification")
	}
	if !strings.Contains(err.Error(), "involution") && !strings.Contains(err.Error(), "partner") {
		t.Errorf("tampered-table error %q does not name the matching violation", err)
	}
	partners[0] = orig
	if err := CheckSchedule(sch, d, dcomm.OpPrefix); err != nil {
		t.Fatalf("restored schedule rejected: %v", err)
	}

	// A self-pair and a tampered link index must be caught too.
	partners[0] = 0
	if CheckSchedule(sch, d, dcomm.OpPrefix) == nil {
		t.Error("self-paired node passed verification")
	}
	partners[0] = orig
	links := sch.Steps[0].LinkIndexes()
	links[0]++
	if CheckSchedule(sch, d, dcomm.OpPrefix) == nil {
		t.Error("tampered link index passed verification")
	}
	links[0]--
}

// TestCheckScheduleTamperingAllFamilies repeats the tampered-partner probe
// on every topology family: the generalized checker must verify and reject
// hypercube and Z-cube schedules exactly as it does dual-cube ones.
func TestCheckScheduleTamperingAllFamilies(t *testing.T) {
	for _, fam := range topology.Families() {
		t.Run(fam, func(t *testing.T) {
			c, err := topology.CommByID(fam, 3)
			if err != nil {
				t.Fatal(err)
			}
			sch := buildPrefixSchedule(c)
			if err := CheckSchedule(sch, c, dcomm.OpPrefix); err != nil {
				t.Fatalf("pristine schedule rejected: %v", err)
			}
			partners := sch.Steps[0].Partners()
			orig := partners[0]
			partners[0] = partners[2]
			if CheckSchedule(sch, c, dcomm.OpPrefix) == nil {
				t.Error("tampered partner table passed verification")
			}
			partners[0] = orig
			sch.Steps[1].Dim++
			if CheckSchedule(sch, c, dcomm.OpPrefix) == nil {
				t.Error("tampered step dimension passed verification")
			}
			sch.Steps[1].Dim--
			if err := CheckSchedule(sch, c, dcomm.OpPrefix); err != nil {
				t.Fatalf("restored schedule rejected: %v", err)
			}
		})
	}
}

// TestCheckScheduleRejectsUnfinalized checks that a schedule whose tables
// were never built is reported, not silently accepted.
func TestCheckScheduleRejectsUnfinalized(t *testing.T) {
	d := topology.MustDualCube(3)
	m := d.ClusterDim()
	sch := &machine.Schedule{Name: "prefix/" + d.Name(), D: d}
	for half := 0; half < 2; half++ {
		for i := 0; i < m; i++ {
			sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepClusterDim, Dim: i, Pattern: i})
		}
		sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepCrossHop, Dim: -1, Pattern: m})
	}
	sch.Steps = append(sch.Steps, machine.Step{Kind: machine.StepLocalCombine, Dim: -1, Pattern: -1})
	err := CheckSchedule(sch, d, dcomm.OpPrefix)
	if err == nil || !strings.Contains(err.Error(), "not finalized") {
		t.Fatalf("unfinalized schedule: err = %v, want finalization complaint", err)
	}
}

// TestCheckFTCatchesTamperedRewrite corrupts pieces of a genuine RewriteFT
// output and checks each corruption is caught.
func TestCheckFTCatchesTamperedRewrite(t *testing.T) {
	d := topology.MustDualCube(3)
	base := buildPrefixSchedule(d)
	view := fault.NewView(d, fault.Random(d, 2, 2008))
	ft, err := dcomm.RewriteFT(base, view)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFT(ft, base, view, 2); err != nil {
		t.Fatalf("pristine rewrite rejected: %v", err)
	}

	ft.RepairCycles++
	if CheckFT(ft, base, view, 2) == nil {
		t.Error("inflated RepairCycles passed verification")
	}
	ft.RepairCycles--

	var annotated *machine.Step
	for i := range ft.Steps {
		if s := &ft.Steps[i]; s.Broken != nil {
			annotated = s
			break
		}
	}
	if annotated == nil {
		t.Fatal("fault plan severed no exchange pattern; pick a different seed")
	}
	dt := &annotated.Detours[0]
	dt.Path[0], dt.Path[len(dt.Path)-1] = dt.Path[len(dt.Path)-1], dt.Path[0]
	if CheckFT(ft, base, view, 2) == nil {
		t.Error("reversed detour endpoints passed verification")
	}
	dt.Path[0], dt.Path[len(dt.Path)-1] = dt.Path[len(dt.Path)-1], dt.Path[0]

	u := dt.Path[0]
	flip := annotated.Broken[u]
	annotated.Broken[u] = !flip
	if CheckFT(ft, base, view, 2) == nil {
		t.Error("inconsistent Broken mask passed verification")
	}
	annotated.Broken[u] = flip

	if err := CheckFT(ft, base, view, 2); err != nil {
		t.Fatalf("restored rewrite rejected: %v", err)
	}
}

// TestCheckFTCleanView pins the clean-view contract: RewriteFT must hand back
// the base schedule itself, and CheckFT must insist on that.
func TestCheckFTCleanView(t *testing.T) {
	d := topology.MustDualCube(3)
	base := buildPrefixSchedule(d)
	clean := fault.NewView(d, nil)
	ft, err := dcomm.RewriteFT(base, clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFT(ft, base, clean, 0); err != nil {
		t.Fatal(err)
	}
	if CheckFT(base, buildPrefixSchedule(d), clean, 0) == nil {
		t.Error("clean view with a copied schedule passed; must be the identical pointer")
	}
}

// TestCheckSweepCatchesDrift drops one dimension from an otherwise pristine
// normal sweep, or sweeps its neighbor twice instead, on D_n and on the
// hypercube baseline, and expects the checkers to reject every drift: a
// sweep that skips a dimension computes a different algorithm.
func TestCheckSweepCatchesDrift(t *testing.T) {
	// The cached sweeps are bound to whichever instances compiled them
	// first, so the checks run against those.
	sweep := dcomm.CompiledSweep(topology.MustDualCube(4))
	d := sweep.D
	cube, err := dcomm.CompiledCubeSweep(topology.MustHypercube(7))
	if err != nil {
		t.Fatal(err)
	}
	h := cube.Topo.(*topology.Hypercube)
	if err := CheckSweepSchedule(sweep, d); err != nil {
		t.Fatalf("pristine D_4 sweep rejected: %v", err)
	}
	if err := CheckCubeSweepSchedule(cube, h); err != nil {
		t.Fatalf("pristine Q_7 sweep rejected: %v", err)
	}
	// drifts returns the two drifts of sch that skip dimension j: without
	// its step, and with its step replaced by the next dimension's.
	drifts := func(sch *machine.Schedule, j int) []*machine.Schedule {
		dropped, repeated := *sch, *sch
		dropped.Steps = slices.Delete(slices.Clone(sch.Steps), j, j+1)
		repeated.Steps = slices.Clone(sch.Steps)
		repeated.Steps[j] = sch.Steps[(j+1)%len(sch.Steps)]
		return []*machine.Schedule{&dropped, &repeated}
	}
	for j := 0; j < d.RecDims(); j++ {
		for _, drift := range drifts(sweep, j) {
			if CheckSweepSchedule(drift, d) == nil {
				t.Errorf("D_4 sweep skipping dimension %d (%d steps) passed verification", j, len(drift.Steps))
			}
		}
	}
	for j := 0; j < h.Dim(); j++ {
		for _, drift := range drifts(cube, j) {
			if CheckCubeSweepSchedule(drift, h) == nil {
				t.Errorf("Q_7 sweep skipping dimension %d (%d steps) passed verification", j, len(drift.Steps))
			}
		}
	}
	// A sort ladder is not a sweep, even over the same matchings.
	if CheckSweepSchedule(buildSortSchedule(d), d) == nil {
		t.Error("the D_sort ladder passed as a sweep")
	}
}
