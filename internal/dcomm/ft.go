package dcomm

import (
	"fmt"
	"sort"

	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Fault tolerance for the recursive technique. The fault model is the
// post-diagnosis one of the connectivity literature (Zhao/Hao/Cheng,
// PAPERS.md): every node knows the full set of permanent faults, so all nodes
// derive the identical detour schedule offline and no runtime agreement is
// needed. Because the link connectivity of D_n is n, any f <= n-1 link faults
// leave the network connected and every broken pair has an alive repair path.
//
// The cluster technique's fault tolerance no longer lives here: it is an IR
// rewrite (RewriteFT in sched.go) annotating the compiled schedules that the
// machine interpreter executes. What remains is the recursive-dimension
// exchange with its 3-cycle relay pattern — a primitive the schedule IR does
// not model — planned by PlanDimExchangeFT and executed by DimExchangeFT.
// The relay mechanics themselves (serial per-pair repairs along alive paths)
// are machine.RunDetours/RelayOneWay, shared with the schedule interpreter.

// Detour is one broken pair's repair assignment: the pair and the alive relay
// path joining its endpoints (Path[0] = Pair.U, Path[len-1] = Pair.V).
type Detour struct {
	Pair fault.Link
	Path []int
	back []int // Path reversed, precomputed so node programs stay alloc-free
}

// FTPlan is the global detour schedule for one recursive-dimension exchange
// pattern under one fault view. It is computed once by PlanDimExchangeFT and
// shared read-only by every node program, so the per-cycle work inside the
// machine stays O(1) per node.
type FTPlan struct {
	broken   []bool // per node: this node's pair is broken and repaired later
	relayOff []bool // per node (dim exchange, j > 0): direct pair alive but its
	// mismatched cross pair is broken, so skip relay duty
	detours      []Detour
	repairCycles int
}

// Detours returns the repair assignments in schedule order.
func (p *FTPlan) Detours() []Detour {
	if p == nil {
		return nil
	}
	return p.detours
}

// RepairCycles returns the extra clock cycles the repairs append to the plain
// schedule: sum over detours of 2·(path length − 1). Zero for a nil plan.
func (p *FTPlan) RepairCycles() int {
	if p == nil {
		return 0
	}
	return p.repairCycles
}

func newFTPlan(n int) *FTPlan {
	return &FTPlan{broken: make([]bool, n), relayOff: make([]bool, n)}
}

// addPair marks {u, w} broken and assigns its repair path.
func (p *FTPlan) addPair(view *fault.View, u, w int) error {
	pair := fault.Link{U: u, V: w}.Normalize()
	path := view.Path(pair.U, pair.V)
	if path == nil {
		return fmt.Errorf("dcomm: faults disconnect %d and %d, no repair path exists", pair.U, pair.V)
	}
	p.broken[u], p.broken[w] = true, true
	back := make([]int, len(path))
	for i, x := range path {
		back[len(path)-1-i] = x
	}
	p.detours = append(p.detours, Detour{Pair: pair, Path: path, back: back})
	return nil
}

// finish fixes the canonical repair order and the cycle count.
func (p *FTPlan) finish() {
	sort.Slice(p.detours, func(i, j int) bool {
		a, b := p.detours[i].Pair, p.detours[j].Pair
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	for _, dt := range p.detours {
		p.repairCycles += 2 * (len(dt.Path) - 1)
	}
}

// PlanDimExchangeFT computes the detour schedule for the parallel
// recursive-dimension-j exchange under view. For j > 0 the plain 3-cycle
// machine.RecDimExchange makes a mismatched pair {v, v_j} depend on three
// links — its two cross-edges and its relay pair's j-link — so:
//
//   - a down j-link {w, w_j} breaks both the direct pair {w, w_j} and the
//     mismatched pair {cross(w), cross(w_j)} it relays for;
//   - a down cross-edge breaks only the mismatched pair of its endpoints;
//   - a direct pair that survives but whose mismatched pair is broken
//     exchanges normally and skips relay duty (the mismatched nodes are
//     idling, so no foreign value arrives on the cross-edge).
func PlanDimExchangeFT(d topology.Recursive, view *fault.View, j int) (*FTPlan, error) {
	if view.Clean() {
		return nil, nil
	}
	if j == 0 {
		// Dimension 0 is the cross matching: plan it like a schedule step.
		broken, dets, err := planMatching(d, view, d.CrossNeighbor)
		if err != nil {
			return nil, err
		}
		p := &FTPlan{broken: broken, relayOff: make([]bool, d.Nodes()), detours: dets}
		for _, dt := range dets {
			p.repairCycles += 2 * (len(dt.Path) - 1)
		}
		return p, nil
	}
	p := newFTPlan(d.Nodes())
	for u := 0; u < d.Nodes(); u++ {
		r := d.ToRecursive(u)
		if !d.RecDirect(r, j) {
			continue
		}
		w := d.FromRecursive(r ^ 1<<j)
		if u > w {
			continue // both ends of a direct pair are direct; visit once
		}
		cu, cw := d.CrossNeighbor(u), d.CrossNeighbor(w)
		directDown := view.LinkDown(u, w)
		if directDown {
			if err := p.addPair(view, u, w); err != nil {
				return nil, err
			}
		}
		if directDown || view.LinkDown(cu, u) || view.LinkDown(cw, w) {
			if err := p.addPair(view, cu, cw); err != nil {
				return nil, err
			}
			if !directDown {
				p.relayOff[u], p.relayOff[w] = true, true
			}
		}
	}
	p.finish()
	return p, nil
}

// DimExchangeFT is machine.RecDimExchange surviving the faults planned in p
// (from PlanDimExchangeFT with the same d and j).
func DimExchangeFT[T any](c *machine.Ctx[T], d topology.Recursive, j int, v T, p *FTPlan) T {
	if p == nil {
		return machine.RecDimExchange(c, d, j, v)
	}
	u := c.ID()
	cross := d.CrossNeighbor(u)
	if j == 0 {
		var r T
		if p.broken[u] {
			c.Idle()
		} else {
			r = c.Exchange(cross, v)
		}
		if got, ok := runRepairs(c, p, v); ok {
			r = got
		}
		return r
	}
	var own T
	r := d.ToRecursive(u)
	switch {
	case p.broken[u]:
		c.Idle() // cycles 1-3: this pair is repaired after the main schedule
		c.Idle()
		c.Idle()
	case d.RecDirect(r, j):
		jp := d.FromRecursive(r ^ 1<<j)
		if p.relayOff[u] {
			own = c.Exchange(jp, v) // cycle 1; no foreign value is coming
			c.Idle()                // cycle 2
			c.Idle()                // cycle 3
		} else {
			var foreign T
			own, foreign = c.SendRecv2(jp, v, jp, cross) // cycle 1
			relayed := c.SendRecv(jp, foreign, jp)       // cycle 2
			c.Send(cross, relayed)                       // cycle 3
		}
	default:
		c.Send(cross, v) // cycle 1
		c.Idle()         // cycle 2
		own = c.Recv(cross)
	}
	if got, ok := runRepairs(c, p, v); ok {
		own = got
	}
	return own
}

// runRepairs walks the plan's detour schedule through the machine's relay
// interpreter: for each broken pair, the U endpoint's value travels to V and
// then V's to U along the alive path. Every node executes the same cycle
// count; ok reports whether this node is an endpoint of some pair (at most
// one — matchings are disjoint) and received its partner's value.
func runRepairs[T any](c *machine.Ctx[T], p *FTPlan, v T) (T, bool) {
	var out T
	var have bool
	for i := range p.detours {
		dt := &p.detours[i]
		if got, ok := machine.RelayOneWay(c, dt.Path, v); ok {
			out, have = got, true
		}
		if got, ok := machine.RelayOneWay(c, dt.back, v); ok {
			out, have = got, true
		}
	}
	return out, have
}
