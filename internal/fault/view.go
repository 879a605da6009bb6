package fault

import (
	"sort"

	"dualcube/internal/topology"
)

// View is the global picture of a plan's failed links over one topology —
// the post-diagnosis knowledge the paper's fault model grants every node.
// Fault-tolerant routing (internal/dcomm) consults it to decide which
// exchanges need a detour and which alive path to relay over; because every
// node derives the same View from the same plan, the detour schedules agree
// without any runtime agreement protocol.
//
// A nil *View means fault-free: all methods are safe on nil and report a
// clean network, so callers thread a single pointer through and pay nothing
// when no plan is armed.
type View struct {
	t        topology.Topology
	downLink map[Link]struct{}
}

// NewView indexes plan's failed links against t. A nil plan (or one with no
// failed links) yields a nil View.
func NewView(t topology.Topology, plan *Plan) *View {
	if plan == nil || len(plan.Links) == 0 {
		return nil
	}
	v := &View{t: t, downLink: make(map[Link]struct{}, len(plan.Links))}
	for _, l := range plan.Links {
		v.downLink[l.Normalize()] = struct{}{}
	}
	return v
}

// Clean reports whether the view carries no failed links.
func (v *View) Clean() bool {
	return v == nil || len(v.downLink) == 0
}

// LinkDown reports whether the link {u, w} is failed.
func (v *View) LinkDown(u, w int) bool {
	if v == nil {
		return false
	}
	_, down := v.downLink[Link{u, w}.Normalize()]
	return down
}

// DownLinks returns every failed link, normalized and sorted — a canonical
// enumeration all nodes agree on.
func (v *View) DownLinks() []Link {
	if v == nil {
		return nil
	}
	out := make([]Link, 0, len(v.downLink))
	for l := range v.downLink {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Path returns a shortest alive path from u to w (inclusive of both), or nil
// when the faults disconnect them. Deterministic: BFS in node-ID order, so
// every node computes the identical path for the same pair — the property the
// relay schedules in dcomm rely on. With f <= n-1 link faults a path always
// exists (the link connectivity of D_n is n, per Zhao/Hao/Cheng).
func (v *View) Path(u, w int) []int {
	if v == nil {
		return nil // a nil view has no topology to search; callers take the fast path instead
	}
	if u == w {
		return []int{u}
	}
	prev := make(map[int]int, 64)
	prev[u] = u
	frontier := []int{u}
	for len(frontier) > 0 {
		var next []int
		for _, x := range frontier {
			for _, y := range v.t.Neighbors(x) {
				if v.LinkDown(x, y) {
					continue
				}
				if _, seen := prev[y]; seen {
					continue
				}
				prev[y] = x
				if y == w {
					var path []int
					for at := w; at != u; at = prev[at] {
						path = append(path, at)
					}
					path = append(path, u)
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				next = append(next, y)
			}
		}
		frontier = next
	}
	return nil
}
