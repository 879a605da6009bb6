package dcomm

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// TestCompiledUnknownOp checks that an out-of-enum operation surfaces as a
// returned error — not a panic, and not a cache slot index crash.
func TestCompiledUnknownOp(t *testing.T) {
	d := topology.MustDualCube(3)
	for _, op := range []Op{OpEnd, Op(200)} {
		sch, err := Compiled(d, op)
		if err == nil {
			t.Fatalf("Compiled(d, %d) = %v, want error", uint8(op), sch)
		}
		if !strings.Contains(err.Error(), "no schedule builder") {
			t.Errorf("Compiled(d, %d) error = %q, want mention of missing builder", uint8(op), err)
		}
	}
}

// TestCompiledAllOps checks every enum operation compiles, is cached (the
// second call returns the identical pointer) and is finalized.
func TestCompiledAllOps(t *testing.T) {
	d := topology.MustDualCube(3)
	for op := OpPrefix; op < OpEnd; op++ {
		sch, err := Compiled(d, op)
		if err != nil {
			t.Fatalf("Compiled(d, %s): %v", op, err)
		}
		again, err := Compiled(d, op)
		if err != nil || again != sch {
			t.Errorf("Compiled(d, %s) second call = (%p, %v), want cached %p", op, again, err, sch)
		}
		for i := range sch.Steps {
			if st := &sch.Steps[i]; st.Kind != machine.StepLocalCombine && st.Partners() == nil {
				t.Errorf("%s step %d not finalized", sch.Name, i)
			}
		}
	}
}

// TestCompiledTopologyKeyedCache checks the schedule cache is keyed by
// (family, order, op): every family gets its own entry, and two distinct
// Comm values of the same family and order share one compiled schedule —
// the key is structural, not the instance pointer.
func TestCompiledTopologyKeyedCache(t *testing.T) {
	byFamily := make(map[string]*machine.Schedule)
	for _, fam := range topology.Families() {
		c, err := topology.CommByID(fam, 3)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := Compiled(c, OpPrefix)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for prev, other := range byFamily {
			if other == sch {
				t.Errorf("families %s and %s share a cache entry", prev, fam)
			}
		}
		byFamily[fam] = sch
	}
	fresh, err := Compiled(topology.MustZCube(3), OpPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != byFamily["zcube"] {
		t.Error("a fresh Z_3 instance missed the (zcube, 3, prefix) cache entry")
	}
}

// TestCompiledConcurrentWarm hammers the topology-keyed schedule cache from
// concurrent goroutines warming every (family, order, op) cell; run under
// -race this proves the cache's lock discipline, and every call for one cell
// must observe the same compiled schedule pointer.
func TestCompiledConcurrentWarm(t *testing.T) {
	type cell struct {
		fam string
		n   int
		op  Op
	}
	var cells []cell
	for _, fam := range topology.Families() {
		for n := 2; n <= 4; n++ {
			for op := OpPrefix; op < OpEnd; op++ {
				cells = append(cells, cell{fam, n, op})
			}
		}
	}
	const workers = 8
	got := make([][]*machine.Schedule, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*machine.Schedule, len(cells))
			for i, cl := range cells {
				c, err := topology.CommByID(cl.fam, cl.n)
				if err != nil {
					t.Errorf("%s D_%d: %v", cl.fam, cl.n, err)
					return
				}
				sch, err := Compiled(c, cl.op)
				if err != nil {
					t.Errorf("%s D_%d %s: %v", cl.fam, cl.n, cl.op, err)
					return
				}
				out[i] = sch
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] == nil || got[0] == nil {
			continue // a goroutine already reported its failure
		}
		for i, cl := range cells {
			if got[w][i] != got[0][i] {
				t.Fatalf("%s D_%d %s: goroutines observed distinct schedules %p and %p",
					cl.fam, cl.n, cl.op, got[0][i], got[w][i])
			}
		}
	}
}

// partnerKernel exchanges every node's ID on every communication step of
// sch and counts, per node, the steps that delivered anything but the
// step's partner.
type partnerKernel struct {
	sch   *machine.Schedule
	wrong []int
}

func (k *partnerKernel) Produce(dc *machine.DirectCtx, s, u int) (machine.DirectRole, int) {
	return machine.DirectExchange, u
}

func (k *partnerKernel) Absorb(dc *machine.DirectCtx, s, u, v int) {
	if v != int(k.sch.Steps[s].Partners()[u]) {
		k.wrong[u]++
	}
}

func (k *partnerKernel) Local(dc *machine.DirectCtx, s, u int) {}

// TestRewriteFTAnnotations fails one cluster link and one cross link and
// checks the fault rewrite annotates exactly the severed exchange patterns,
// that the rewritten schedule delivers every partner value with the faults
// armed, on the engine and on the direct executor alike, and that the
// repair cost is visible in the cycle count.
func TestRewriteFTAnnotations(t *testing.T) {
	d := topology.MustDualCube(3)
	m := d.ClusterDim()
	plan := &fault.Plan{Links: []fault.Link{
		{U: 0, V: d.ClusterNeighbor(0, 1)},
		{U: 5, V: d.CrossNeighbor(5)},
	}}
	sch, err := RewriteFT(MustCompiled(d, OpPrefix), fault.NewView(d, plan))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sch.Steps {
		s := &sch.Steps[i]
		if s.Kind == machine.StepLocalCombine {
			continue
		}
		want := 0
		if s.Pattern == 1 || s.Pattern == m {
			want = 1
		}
		if len(s.Detours) != want {
			t.Errorf("step %d (pattern %d): %d detours, want %d", i, s.Pattern, len(s.Detours), want)
		}
	}
	if dets := PatternDetours(sch); len(dets) != 2 {
		t.Fatalf("PatternDetours: %d unique detours, want 2", len(dets))
	}
	var ref machine.Stats
	for i, sched := range []machine.Sched{machine.SchedWorkerPool, machine.SchedDefault} {
		k := &partnerKernel{sch: sch, wrong: make([]int, d.Nodes())}
		st, err := Execute(sch, machine.Config{Sched: sched, Faults: plan.Spec()}, machine.DirectKernel[int](k))
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		for u, w := range k.wrong {
			if w != 0 {
				t.Fatalf("%v: node %d absorbed a wrong partner value in %d step(s)", sched, u, w)
			}
		}
		if want := MustCompiled(d, OpPrefix).CommSteps() + sch.RepairCycles; st.Cycles != want {
			t.Errorf("%v: cycles = %d, want %d", sched, st.Cycles, want)
		}
		if i == 0 {
			ref = st
		} else if st != ref {
			t.Errorf("stats diverge between backends:\n  %v: %+v\n  %v: %+v", machine.SchedWorkerPool, ref, sched, st)
		}
	}
}

// TestRewriteFTClean checks the clean-view fast path returns the compiled
// schedule itself, unannotated and uncopied.
func TestRewriteFTClean(t *testing.T) {
	d := topology.MustDualCube(3)
	base := MustCompiled(d, OpPrefix)
	sch, err := RewriteFT(base, fault.NewView(d, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sch != base {
		t.Fatal("clean view did not return the compiled schedule itself")
	}
	if sch.RepairCycles != 0 {
		t.Fatalf("fault-free schedule has RepairCycles = %d", sch.RepairCycles)
	}
}

// recValueKernel sends every node's value r*10+1, r its recursive ID, on
// every step and sums, per recursive ID, the values the node absorbs.
type recValueKernel struct {
	rec []int // node -> recursive ID
	got []int // recursive ID -> sum of absorbed values
}

func (k *recValueKernel) Produce(dc *machine.DirectCtx, s, u int) (machine.DirectRole, int) {
	return machine.DirectExchange, k.rec[u]*10 + 1
}

func (k *recValueKernel) Absorb(dc *machine.DirectCtx, s, u, v int) { k.got[k.rec[u]] += v }

func (k *recValueKernel) Local(dc *machine.DirectCtx, s, u int) {}

// runRecValues runs recValueKernel over sch on both backends, requires
// identical sums and Stats, and returns them.
func runRecValues(t *testing.T, sch *machine.Schedule, d topology.Comm) ([]int, machine.Stats) {
	t.Helper()
	var ref []int
	var refStats machine.Stats
	for i, sched := range []machine.Sched{machine.SchedWorkerPool, machine.SchedDefault} {
		k := &recValueKernel{rec: make([]int, d.Nodes()), got: make([]int, d.Nodes())}
		for u := range k.rec {
			k.rec[u] = d.ToRecursive(u)
		}
		st, err := Execute(sch, machine.Config{Sched: sched}, machine.DirectKernel[int](k))
		if err != nil {
			t.Fatalf("%s %v: %v", sch.Name, sched, err)
		}
		if i == 0 {
			ref, refStats = k.got, st
			continue
		}
		if !slices.Equal(k.got, ref) || st != refStats {
			t.Fatalf("%s: backends diverge: %+v vs %+v", sch.Name, refStats, st)
		}
	}
	return ref, refStats
}

// TestDimExchangeAllDims checks that a one-step schedule exchanging along
// recursive dimension j delivers exactly the dimension-j partner's value to
// every node, on both backends, for every recursive dimension, in 1 cycle
// on the cross-edge dimension 0 (all pairs direct) and 3 on the others
// (Section 6: half the pairs route through two cross-edges).
func TestDimExchangeAllDims(t *testing.T) {
	for n := 1; n <= 4; n++ {
		d := topology.MustDualCube(n)
		m := d.ClusterDim()
		for j := 0; j < d.RecDims(); j++ {
			step, cycles := machine.Step{Kind: machine.StepRecDim, Dim: j, Pattern: m + j}, 3
			if j == 0 {
				step, cycles = machine.Step{Kind: machine.StepCrossHop, Dim: 0, Pattern: m}, 1
			}
			sch := &machine.Schedule{Name: "dim/" + d.Name(), D: d, Steps: []machine.Step{step}}
			sch.Finalize()
			got, st := runRecValues(t, sch, d)
			for r := range got {
				if want := (r^1<<j)*10 + 1; got[r] != want {
					t.Fatalf("n=%d j=%d: rec node %d got %d, want %d", n, j, r, got[r], want)
				}
			}
			if st.Cycles != cycles {
				t.Errorf("n=%d j=%d: cycles %d, want %d", n, j, st.Cycles, cycles)
			}
		}
	}
}

// TestDimExchangeSequence runs the normal sweep — every recursive
// dimension back to back, the way emulate uses it — and checks every node
// absorbs each partner's value in turn, in 6n-5 cycles, on both backends.
func TestDimExchangeSequence(t *testing.T) {
	d := topology.MustDualCube(3)
	sch := CompiledSweep(d)
	if again := CompiledSweep(topology.MustDualCube(3)); again != sch {
		t.Error("a fresh D_3 instance missed the cached sweep")
	}
	got, st := runRecValues(t, sch, d)
	for r := range got {
		want := 0
		for j := 0; j < d.RecDims(); j++ {
			want += (r^1<<j)*10 + 1
		}
		if got[r] != want {
			t.Fatalf("rec node %d: %d, want %d", r, got[r], want)
		}
	}
	if want := 6*d.Order() - 5; st.Cycles != want {
		t.Errorf("cycles %d, want %d", st.Cycles, want)
	}
}
