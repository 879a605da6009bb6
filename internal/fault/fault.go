// Package fault provides reproducible fault plans for the dual-cube machine:
// the set of links permanently down for a run, the fault model of the
// paper's degraded mode (D_n has link connectivity n, so f <= n-1 failed
// links leave every severed pair an alive detour). A Plan is the user-level
// description, drawn at random from a seed by Random; Spec compiles it into
// the topology-neutral machine.FaultSpec the executors arm, and View is the
// global post-diagnosis picture of the failed links that fault-tolerant
// routing (internal/dcomm) and the degraded algorithms (internal/prefix)
// consult.
//
// Everything here is deterministic: the same seed picks the same links, and
// the same Plan yields the same detours and therefore the same Stats on
// either executor and under any worker count.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Link is an undirected dual-cube link named by its endpoints. The zero Link
// is not meaningful; use Normalize to compare links regardless of endpoint
// order.
type Link struct {
	U, V int
}

// Normalize returns the link with its endpoints in ascending order.
func (l Link) Normalize() Link {
	if l.U > l.V {
		return Link{l.V, l.U}
	}
	return l
}

func (l Link) String() string { return fmt.Sprintf("%d-%d", l.U, l.V) }

// Plan is a reproducible fault scenario: a set of permanently failed links.
// A Plan must not be mutated after its Spec has been taken; share one *Plan
// across runs to reuse the engine's compiled fault mask.
type Plan struct {
	// Links are permanently failed undirected links.
	Links []Link

	once sync.Once
	spec *machine.FaultSpec
}

// Spec compiles the plan into the executor-facing fault spec, caching the
// result so repeated runs arm the identical pointer (which lets the engine
// reuse its compiled per-link mask). A nil plan yields a nil spec — fault-free.
func (p *Plan) Spec() *machine.FaultSpec {
	if p == nil {
		return nil
	}
	p.once.Do(func() {
		s := &machine.FaultSpec{Links: make([][2]int, len(p.Links))}
		for i, l := range p.Links {
			s.Links[i] = [2]int{l.U, l.V}
		}
		p.spec = s
	})
	return p.spec
}

// RandomLinks picks f distinct links of t uniformly at random, deterministic
// in seed: the canonical edge list is partially Fisher-Yates shuffled by a
// seeded PRNG. Callers wanting the paper-grade guarantee keep f below the
// topology's link connectivity, but any f up to the edge count is accepted.
func RandomLinks(t topology.Topology, f int, seed int64) []Link {
	edges := allLinks(t)
	if f < 0 {
		f = 0
	}
	if f > len(edges) {
		f = len(edges)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < f; i++ {
		j := i + r.Intn(len(edges)-i)
		edges[i], edges[j] = edges[j], edges[i]
	}
	out := edges[:f:f]
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Random builds a plan of f random permanent link faults — the standard
// scenario of the fault-sweep experiments.
func Random(t topology.Topology, f int, seed int64) *Plan {
	return &Plan{Links: RandomLinks(t, f, seed)}
}

// allLinks enumerates every undirected link of t in canonical (U < V) order.
func allLinks(t topology.Topology) []Link {
	n := t.Nodes()
	hint := 0
	if n > 0 {
		hint = n * t.Degree(0) / 2
	}
	edges := make([]Link, 0, hint)
	for u := 0; u < n; u++ {
		for _, v := range t.Neighbors(u) {
			if u < v {
				edges = append(edges, Link{u, v})
			}
		}
	}
	return edges
}
