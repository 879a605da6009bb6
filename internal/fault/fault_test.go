package fault

import (
	"reflect"
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// TestRandomLinksDeterministic checks the seed contract: same seed, same
// links; different seeds, (almost surely) different links; all results are
// distinct real edges.
func TestRandomLinksDeterministic(t *testing.T) {
	d := topology.MustDualCube(4)
	f := d.Order() - 1
	a := RandomLinks(d, f, 42)
	b := RandomLinks(d, f, 42)
	if len(a) != f {
		t.Fatalf("got %d links, want %d", len(a), f)
	}
	seen := make(map[Link]bool)
	for i, l := range a {
		if l != b[i] {
			t.Errorf("seed 42 not reproducible: %v vs %v", a, b)
		}
		if !d.HasEdge(l.U, l.V) {
			t.Errorf("%v is not an edge of %s", l, d.Name())
		}
		if seen[l.Normalize()] {
			t.Errorf("duplicate link %v", l)
		}
		seen[l.Normalize()] = true
	}
	c := RandomLinks(d, f, 43)
	same := len(c) == len(a)
	for i := range c {
		same = same && c[i] == a[i]
	}
	if same {
		t.Errorf("seeds 42 and 43 chose identical links %v", a)
	}
}

// TestRandomLinksBounds checks clamping of degenerate f.
func TestRandomLinksBounds(t *testing.T) {
	d := topology.MustDualCube(2)
	if got := RandomLinks(d, -3, 1); len(got) != 0 {
		t.Errorf("f=-3: got %v, want empty", got)
	}
	edges := d.Nodes() * d.Order() / 2
	if got := RandomLinks(d, edges+10, 1); len(got) != edges {
		t.Errorf("f>edges: got %d links, want all %d", len(got), edges)
	}
}

// TestSpecCachedAndDeterministic checks that equal plans compile to equal
// link lists, in the plan's order.
func TestSpecCachedAndDeterministic(t *testing.T) {
	d := topology.MustDualCube(3)
	p := Random(d, 2, 7)
	s := p.Spec()
	twin := Random(d, 2, 7).Spec()
	if len(s.Links) != 2 || !reflect.DeepEqual(s.Links, twin.Links) {
		t.Errorf("equal plans compiled to %v and %v", s.Links, twin.Links)
	}
	for i, l := range p.Links {
		if s.Links[i] != [2]int{l.U, l.V} {
			t.Errorf("Spec link %d = %v, want %v", i, s.Links[i], l)
		}
	}
	var nilPlan *Plan
	if nilPlan.Spec() != nil {
		t.Error("nil plan must compile to nil spec")
	}
}

// TestViewBasics checks the fault predicate and the canonical down-link
// enumeration.
func TestViewBasics(t *testing.T) {
	d := topology.MustDualCube(2)
	dead := Link{d.CrossNeighbor(0), 0} // deliberately unnormalized
	other := Link{3, d.ClusterNeighbor(3, 0)}
	v := NewView(d, &Plan{Links: []Link{dead, other, dead}})
	if v.Clean() {
		t.Fatal("view with faults reports clean")
	}
	if !v.LinkDown(0, d.CrossNeighbor(0)) || !v.LinkDown(d.CrossNeighbor(0), 0) {
		t.Error("failed link not down in both orientations")
	}
	if v.LinkDown(0, d.ClusterNeighbor(0, 0)) {
		t.Error("live link reported down")
	}
	want := []Link{dead.Normalize(), other.Normalize()}
	if want[0].U > want[1].U {
		want[0], want[1] = want[1], want[0]
	}
	if got := v.DownLinks(); !reflect.DeepEqual(got, want) {
		t.Errorf("DownLinks = %v, want %v", got, want)
	}
	var nilView *View
	if !nilView.Clean() || nilView.LinkDown(0, 1) || nilView.DownLinks() != nil {
		t.Error("nil view must be clean")
	}
	if NewView(d, &Plan{}) != nil {
		t.Error("empty plan must yield a nil (clean) view")
	}
}

// TestViewPath checks detour computation: alive, shortest-alive, and
// deterministic across repeated calls, for every surviving pair under a
// random f = n-1 plan.
func TestViewPath(t *testing.T) {
	d := topology.MustDualCube(3)
	plan := Random(d, d.Order()-1, 99)
	v := NewView(d, plan)
	for u := 0; u < d.Nodes(); u++ {
		for _, w := range d.Neighbors(u) {
			p := v.Path(u, w)
			if p == nil {
				t.Fatalf("no alive path %d..%d under %d link faults (connectivity violated?)", u, w, len(plan.Links))
			}
			if p[0] != u || p[len(p)-1] != w {
				t.Fatalf("path %v does not join %d..%d", p, u, w)
			}
			for i := 0; i+1 < len(p); i++ {
				if !d.HasEdge(p[i], p[i+1]) {
					t.Fatalf("path %v uses non-edge %d-%d", p, p[i], p[i+1])
				}
				if v.LinkDown(p[i], p[i+1]) {
					t.Fatalf("path %v uses down link %d-%d", p, p[i], p[i+1])
				}
			}
			if !v.LinkDown(u, w) && len(p) != 2 {
				t.Fatalf("alive direct link %d-%d got detour %v", u, w, p)
			}
			again := v.Path(u, w)
			for i := range p {
				if p[i] != again[i] {
					t.Fatalf("Path(%d,%d) not deterministic: %v vs %v", u, w, p, again)
				}
			}
		}
	}
	if v.Path(0, 0) == nil || len(v.Path(0, 0)) != 1 {
		t.Error("self path must be the singleton")
	}
}

// idleKernel idles every node through every step of a schedule.
type idleKernel struct{}

func (idleKernel) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, int) {
	return machine.DirectIdle, 0
}
func (idleKernel) Absorb(dc *machine.DirectCtx, k, u, v int) {}
func (idleKernel) Local(dc *machine.DirectCtx, k, u int)     {}

// TestPlanEngineRoundTrip runs a plan through the engine, and through the
// direct executor, and checks the static fault figures surface in Stats
// exactly as the plan describes. It calls machine.RunEngine directly:
// dcomm.Execute would be an import cycle.
func TestPlanEngineRoundTrip(t *testing.T) {
	d := topology.MustDualCube(3)
	plan := Random(d, 2, 5)
	sch := &machine.Schedule{Name: "idle", D: d, Steps: []machine.Step{{Kind: machine.StepCrossHop, Dim: -1, Pattern: d.ClusterDim()}}}
	sch.Finalize()
	cfg := machine.Config{Faults: plan.Spec()}
	st, err := machine.RunEngine(sch, cfg, machine.DirectKernel[int](idleKernel{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults.DownLinks != 2*len(plan.Links) {
		t.Errorf("Stats.Faults = %+v, want %d directed down links", st.Faults, 2*len(plan.Links))
	}
	if direct, err := machine.RunDirect(sch, cfg, machine.DirectKernel[int](idleKernel{})); err != nil || direct != st {
		t.Errorf("direct executor: err = %v, stats %+v, want the engine's %+v", err, direct, st)
	}
}
