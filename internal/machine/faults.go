package machine

import (
	"fmt"
	"slices"

	"dualcube/internal/topology"
)

// FaultSpec is the engine-facing description of the failures injected into a
// run, in topology-neutral terms: the set of permanently failed links, the
// only fault model the algorithms above survive (D_n has link connectivity n,
// so f <= n-1 failed links leave every severed pair a detour). Both
// executors compile it through downSet when a run starts with the spec armed
// (via Config.Faults). User-level fault plans live in internal/fault, which
// produces FaultSpec values.
//
// Each run compiles its armed spec when it starts, so a spec must not be
// mutated while a run that arms it is in flight.
type FaultSpec struct {
	// Links lists permanently failed undirected links {U, V}: both directed
	// channels are down for the whole run.
	Links [][2]int
}

// FaultStats is the per-run fault breakdown reported in Stats.Faults. It
// depends only on the armed FaultSpec and the topology, never on the
// executor.
type FaultStats struct {
	// DownLinks is the number of directed links masked out by the armed
	// spec (an undirected failure contributes 2).
	DownLinks int
}

// add combines the fault figures of two phases for Stats.Add: the static
// plan figure carries through unchanged, preferring a's non-zero value —
// composite algorithms run their phases on the same machine under the same
// armed plan.
func (a FaultStats) add(b FaultStats) FaultStats {
	if a.DownLinks == 0 {
		return b
	}
	return a
}

// downSet validates spec against t and returns its directed down set, keyed
// u*n+v for the link u -> v: a failed undirected link marks both directions,
// and a link listed twice counts once, so len(down) is Stats.Faults.DownLinks.
// Both executors compile specs here — the engine maps the set onto its CSR
// slots, RunDirect uses it as it is — so they accept, reject and count a spec
// alike. An endpoint outside the machine or a pair that is not an edge of t
// fails with the same error on either.
func downSet(t topology.Topology, spec *FaultSpec) (map[int]bool, error) {
	n := t.Nodes()
	down := make(map[int]bool, 2*len(spec.Links))
	for _, l := range spec.Links {
		for _, e := range [2][2]int{l, {l[1], l[0]}} {
			u, v := e[0], e[1]
			if u < 0 || u >= n || !slices.Contains(t.Neighbors(u), v) {
				return nil, fmt.Errorf("machine: fault plan fails link %d-%d, which is not a link", l[0], l[1])
			}
			down[u*n+v] = true
		}
	}
	return down, nil
}

// armedFaults is the armed FaultSpec compiled against an engine's CSR link
// table: the per-directed-edge-slot down mask the send path consults.
type armedFaults struct {
	down      []bool // per directed edge slot: permanently failed
	downLinks int
}

// armFaults compiles the engine's fault spec for its run. With no spec
// armed it leaves e.fx nil, keeping the hot path fault-free.
func (e *engine[T]) armFaults() error {
	spec := e.cfg.Faults
	if spec == nil {
		return nil
	}
	set, err := downSet(e.topo, spec)
	if err != nil {
		return err
	}
	fx := &armedFaults{down: make([]bool, len(e.nbrs)), downLinks: len(set)}
	for k := range set {
		u, v := k/e.n, k%e.n
		fx.down[int(e.offs[u])+e.idxOf(u, v)] = true
	}
	e.fx = fx
	return nil
}
