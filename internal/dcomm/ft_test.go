package dcomm

import (
	"testing"

	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// runFT executes program on d with plan's faults armed in the engine, so any
// send the FT routing attempts on a down link aborts the run — passing these
// tests proves the detours genuinely avoid the failed hardware.
func runFT[T any](t *testing.T, d *topology.DualCube, plan *fault.Plan, sched machine.Sched, program func(*machine.Ctx[T])) machine.Stats {
	t.Helper()
	eng := machine.MustNew[T](d, machine.Config{Sched: sched, Faults: plan.Spec()})
	defer eng.Release()
	st, err := eng.Run(program)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDimExchangeFTSingleCrossFault is the single-failed-cross-edge coverage
// for the 3-cycle relay schedule: for every relay dimension, every node must
// still receive its dimension partner's value, under both schedulers, with
// bit-identical results and Stats across them (differential).
func TestDimExchangeFTSingleCrossFault(t *testing.T) {
	d := topology.MustDualCube(3)
	plan := &fault.Plan{Links: []fault.Link{{U: 0, V: d.CrossNeighbor(0)}}}
	view := fault.NewView(d, plan)
	for j := 1; j < d.RecDims(); j++ {
		p, err := PlanDimExchangeFT(d, view, j)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if len(p.Detours()) != 1 {
			t.Fatalf("j=%d: %d detours for one cross fault, want 1 (the mismatched pair)", j, len(p.Detours()))
		}
		var ref []int
		var refStats machine.Stats
		for _, sched := range []machine.Sched{machine.SchedWorkerPool, machine.SchedGoroutinePerNode} {
			got := make([]int, d.Nodes())
			st := runFT[int](t, d, plan, sched, func(c *machine.Ctx[int]) {
				r := d.ToRecursive(c.ID())
				got[r] = DimExchangeFT(c, d, j, r*10+1, p)
			})
			for r := 0; r < d.Nodes(); r++ {
				if want := (r^1<<j)*10 + 1; got[r] != want {
					t.Fatalf("j=%d sched=%v: rec node %d got %d, want %d", j, sched, r, got[r], want)
				}
			}
			want := 3 + p.RepairCycles()
			if j == 0 {
				want = 1 + p.RepairCycles()
			}
			if st.Cycles != want {
				t.Errorf("j=%d sched=%v: cycles %d, want %d", j, sched, st.Cycles, want)
			}
			if ref == nil {
				ref, refStats = got, st
			} else {
				for r := range got {
					if got[r] != ref[r] {
						t.Fatalf("j=%d: schedulers disagree at rec node %d: %d vs %d", j, r, got[r], ref[r])
					}
				}
				if st != refStats {
					t.Errorf("j=%d: scheduler Stats diverge:\n  %+v\n  %+v", j, refStats, st)
				}
			}
		}
	}
}

// TestDimExchangeFTSingleDimLinkFault fails one j-link, which breaks both the
// direct pair and the mismatched pair relaying through it — two detours.
func TestDimExchangeFTSingleDimLinkFault(t *testing.T) {
	d := topology.MustDualCube(3)
	const j = 2 // even: class-0 nodes are direct
	w := 0
	wj := d.FromRecursive(d.ToRecursive(w) ^ 1<<j)
	plan := &fault.Plan{Links: []fault.Link{{U: w, V: wj}}}
	view := fault.NewView(d, plan)
	p, err := PlanDimExchangeFT(d, view, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Detours()) != 2 {
		t.Fatalf("%d detours for a failed j-link, want 2 (direct + mismatched pair)", len(p.Detours()))
	}
	got := make([]int, d.Nodes())
	runFT[int](t, d, plan, machine.SchedWorkerPool, func(c *machine.Ctx[int]) {
		r := d.ToRecursive(c.ID())
		got[r] = DimExchangeFT(c, d, j, r*10+1, p)
	})
	for r := 0; r < d.Nodes(); r++ {
		if want := (r^1<<j)*10 + 1; got[r] != want {
			t.Fatalf("rec node %d got %d, want %d", r, got[r], want)
		}
	}
}

// TestRewriteFTAnnotations fails one cluster link and one cross link and
// checks the fault rewrite annotates exactly the severed exchange patterns,
// that the interpreted schedule delivers every partner value, and that the
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
	got := make([][]int, d.Nodes())
	st := runFT[int](t, d, plan, machine.SchedWorkerPool, func(c *machine.Ctx[int]) {
		u := c.ID()
		x := machine.Interpret(c, sch)
		var res []int
		for i := range sch.Steps {
			s := &sch.Steps[i]
			if s.Kind == machine.StepLocalCombine {
				x.LocalOps(0)
				continue
			}
			want := int(s.Partners()[u])
			if r := x.Exchange(u); r != want {
				res = append(res, -1)
			} else {
				res = append(res, r)
			}
		}
		got[u] = res
	})
	for u := 0; u < d.Nodes(); u++ {
		for i, r := range got[u] {
			if r == -1 {
				t.Fatalf("node %d comm step %d: wrong partner value", u, i)
			}
		}
	}
	if want := MustCompiled(d, OpPrefix).CommSteps() + sch.RepairCycles; st.Cycles != want {
		t.Errorf("cycles = %d, want %d", st.Cycles, want)
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

// TestExchangeFTRandomFaults sweeps seeded random plans up to the f = n-1
// connectivity bound and checks every FT exchange pattern stays correct with
// the faults armed in the engine.
func TestExchangeFTRandomFaults(t *testing.T) {
	for n := 2; n <= 4; n++ {
		d := topology.MustDualCube(n)
		for f := 1; f < d.Order(); f++ {
			plan := fault.Random(d, f, int64(100*n+f))
			view := fault.NewView(d, plan)
			dims := make([]*FTPlan, d.RecDims())
			var err error
			for j := range dims {
				if dims[j], err = PlanDimExchangeFT(d, view, j); err != nil {
					t.Fatalf("n=%d f=%d j=%d: %v", n, f, j, err)
				}
			}
			got := make([][]int, d.Nodes())
			runFT[int](t, d, plan, machine.SchedWorkerPool, func(c *machine.Ctx[int]) {
				r := d.ToRecursive(c.ID())
				res := make([]int, d.RecDims())
				for j := 0; j < d.RecDims(); j++ {
					res[j] = DimExchangeFT(c, d, j, r*100+j, dims[j])
				}
				got[r] = res
			})
			for r := 0; r < d.Nodes(); r++ {
				for j := 0; j < d.RecDims(); j++ {
					if want := (r^1<<j)*100 + j; got[r][j] != want {
						t.Fatalf("n=%d f=%d: rec node %d dim %d got %d, want %d", n, f, r, j, got[r][j], want)
					}
				}
			}
		}
	}
}

// TestFTCleanViewIsPlain checks the fast path: a clean view plans to nil and
// the FT wrappers then produce the exact schedule of the plain exchanges —
// identical results and identical Stats.
func TestFTCleanViewIsPlain(t *testing.T) {
	d := topology.MustDualCube(3)
	view := fault.NewView(d, nil)
	for j := 0; j < d.RecDims(); j++ {
		p, err := PlanDimExchangeFT(d, view, j)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			t.Fatalf("j=%d: clean view produced a non-nil plan", j)
		}
	}
	program := func(ft bool) (stats machine.Stats, out []int) {
		eng := machine.MustNew[int](d, machine.Config{})
		defer eng.Release()
		out = make([]int, d.Nodes())
		stats, err := eng.Run(func(c *machine.Ctx[int]) {
			r := d.ToRecursive(c.ID())
			acc := 0
			for j := 0; j < d.RecDims(); j++ {
				if ft {
					acc += DimExchangeFT(c, d, j, r, nil)
				} else {
					acc += machine.RecDimExchange(c, d, j, r)
				}
			}
			out[r] = acc
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, out
	}
	plainStats, plain := program(false)
	ftStats, ftOut := program(true)
	if plainStats != ftStats {
		t.Errorf("fault-free FT stats diverge from plain:\n  plain: %+v\n  ft:    %+v", plainStats, ftStats)
	}
	for r := range plain {
		if plain[r] != ftOut[r] {
			t.Fatalf("rec node %d: plain %d, ft %d", r, plain[r], ftOut[r])
		}
	}
}
