package prefix

import (
	"fmt"
	"math/rand"
	"testing"

	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

// TestDPrefixDegradedSweep is the acceptance sweep: on D_4..D_6 and every
// f = 0..n-1, a seeded random plan of f link faults must leave the degraded
// prefix exactly correct (checked against the sequential scan, inclusive and
// diminished), and the communication overhead must match the detour plans.
func TestDPrefixDegradedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 4; n <= 6; n++ {
		d := topology.MustDualCube(n)
		in := randInts(rng, d.Nodes())
		for f := 0; f < n; f++ {
			plan := fault.Random(d, f, int64(1000*n+f))
			for _, inclusive := range []bool{true, false} {
				got, st, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), inclusive, plan)
				if err != nil {
					t.Fatalf("n=%d f=%d: %v", n, f, err)
				}
				want := seq.ScanInclusive(in, monoid.Sum[int]())
				if !inclusive {
					want = seq.ScanExclusive(in, monoid.Sum[int]())
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d f=%d inclusive=%v: out[%d]=%d, want %d", n, f, inclusive, i, got[i], want[i])
					}
				}
				if st.Faults.DownLinks != 2*f {
					t.Errorf("n=%d f=%d: Stats.Faults.DownLinks = %d, want %d", n, f, st.Faults.DownLinks, 2*f)
				}
				sch, err := dcomm.RewriteFT(dcomm.MustCompiled(d, dcomm.OpPrefix), fault.NewView(d, plan))
				if err != nil {
					t.Fatalf("n=%d f=%d: rewrite: %v", n, f, err)
				}
				if want := MeasuredCommSteps(n) + DegradedCommOverhead(sch); st.Cycles != want {
					t.Errorf("n=%d f=%d: comm steps %d, want %d", n, f, st.Cycles, want)
				}
			}
		}
	}
}

// TestDPrefixDegradedReproducible re-runs one seeded faulted prefix and
// requires the full Stats — including the fault breakdown — to repeat
// exactly, the reproducibility half of the acceptance criteria.
func TestDPrefixDegradedReproducible(t *testing.T) {
	const n = 5
	d := topology.MustDualCube(n)
	in := randInts(rand.New(rand.NewSource(3)), d.Nodes())
	plan := fault.Random(d, n-1, 77)
	_, first, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, plan)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		_, again, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, plan)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d diverges:\n  first: %+v\n  again: %+v", run, first, again)
		}
	}
	// A fresh but identically seeded plan must reproduce the same stats too.
	_, fresh, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, fault.Random(d, n-1, 77))
	if err != nil {
		t.Fatal(err)
	}
	if fresh != first {
		t.Fatalf("same seed, fresh plan diverges:\n  first: %+v\n  fresh: %+v", first, fresh)
	}
}

// TestDPrefixDegradedFaultFree checks the zero-plan fast path is the plain
// algorithm: same outputs, same Stats (cycles, messages, ops — everything).
func TestDPrefixDegradedFaultFree(t *testing.T) {
	const n = 4
	d := topology.MustDualCube(n)
	in := randInts(rand.New(rand.NewSource(9)), d.Nodes())
	plainOut, plainStats, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*fault.Plan{nil, {}} {
		out, st, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, plan)
		if err != nil {
			t.Fatal(err)
		}
		if st != plainStats {
			t.Errorf("plan %+v: stats diverge from DPrefix:\n  plain:    %+v\n  degraded: %+v", plan, plainStats, st)
		}
		for i := range plainOut {
			if out[i] != plainOut[i] {
				t.Fatalf("plan %+v: out[%d] = %d, want %d", plan, i, out[i], plainOut[i])
			}
		}
	}
}

// TestDPrefixDegradedNonCommutative runs a faulted prefix over the free
// monoid: detour relays must not perturb the strict index-order combines.
func TestDPrefixDegradedNonCommutative(t *testing.T) {
	const n = 4
	d := topology.MustDualCube(n)
	in := make([]string, d.Nodes())
	for i := range in {
		in[i] = string(rune('a' + i%26))
	}
	plan := fault.Random(d, n-1, 13)
	got, _, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Concat(), true, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.ScanInclusive(in, monoid.Concat())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDPrefixDegradedRejects checks the documented scope limits: plans that
// name bogus links or disconnect the network are refused.
func TestDPrefixDegradedRejects(t *testing.T) {
	const n = 4
	d := topology.MustDualCube(n)
	in := randInts(rand.New(rand.NewSource(2)), d.Nodes())
	for name, plan := range map[string]*fault.Plan{
		"bogus link":    {Links: []fault.Link{{U: 0, V: 3}}},
		"disconnection": {Links: disconnectNode0(d)},
	} {
		if _, _, err := DPrefixDegraded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, plan); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestDPrefixDegradedRejectsNonLink checks that a plan naming a non-link
// fails the run with the executors' one fault-spec error, on the direct
// executor and on the worker pool alike: the fault view matches the non-link
// to no schedule pair, so the rewrite leaves it alone and arming the plan
// rejects it.
func TestDPrefixDegradedRejectsNonLink(t *testing.T) {
	const n = 3
	in := randInts(rand.New(rand.NewSource(3)), 1<<(2*n-1))
	for _, l := range []fault.Link{{U: 99, V: 0}, {U: -1, V: 0}, {U: 0, V: 3}} {
		want := fmt.Sprintf("machine: fault plan fails link %d-%d, which is not a link", l.U, l.V)
		for _, sched := range []machine.Sched{machine.SchedDefault, machine.SchedWorkerPool} {
			plan := &fault.Plan{Links: []fault.Link{l}}
			_, _, err := DPrefixDegraded(machine.Config{Sched: sched}, topology.MustDualCube(n), in, monoid.Sum[int](), true, plan)
			if err == nil || err.Error() != want {
				t.Errorf("link %v on %v: err = %v, want %q", l, sched, err, want)
			}
		}
	}
}

// disconnectNode0 fails every link incident to node 0 (f = n, one past the
// connectivity bound, chosen adversarially).
func disconnectNode0(d *topology.DualCube) []fault.Link {
	var links []fault.Link
	for _, w := range d.Neighbors(0) {
		links = append(links, fault.Link{U: 0, V: w})
	}
	return links
}
