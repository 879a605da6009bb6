// Package prefix implements the paper's parallel prefix computations:
// Algorithm 1 (Cube_prefix, the ascend prefix on a hypercube) and
// Algorithm 2 (D_prefix, the cluster-technique prefix on a dual-cube), plus
// the extensions the paper lists as future work (inputs larger than the
// network) and the hypercube-emulation ablation.
//
// All algorithms are generic over a monoid and combine elements strictly in
// index order, so non-commutative operators are supported. Each returns the
// machine statistics so the experiment harness can check the theorems:
// D_prefix on D_n runs in 2n communication steps (Theorem 1 bound: at most
// 2n+1) and 2n computation rounds.
//
// D_prefix executes through the compiled cluster-technique schedule
// (dcomm.Compiled(d, dcomm.OpPrefix)): the algorithm is a machine.DirectKernel
// (kernel.go) and dcomm.Execute routes it — by default through the direct
// array executor, or through a simulator engine driving the same kernel when
// the caller's machine.Config names an engine scheduler — so the fault-free
// and degraded variants are the same kernel over different schedules and
// both execution paths are one algorithm. Every entry point takes that
// Config first and passes it down unchanged.
package prefix

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/emulate"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// CubePrefix runs Algorithm 1 on the hypercube Q_q: node u starts with
// in[u] and finishes with the prefix in[0] ⊕ ... ⊕ in[u] (inclusive) or
// in[0] ⊕ ... ⊕ in[u-1] (diminished, the paper's tag = 0). It takes q
// communication steps and q computation rounds: the ascend prefix as a
// normal algorithm over the hypercube sweep (emulate.CubeAscend).
func CubePrefix[T any](cfg machine.Config, q int, in []T, m monoid.Monoid[T], inclusive bool) ([]T, machine.Stats, error) {
	h, err := topology.NewHypercube(q)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	if len(in) != h.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("prefix: input length %d != %d nodes of %s", len(in), h.Nodes(), h.Name())
	}
	return ascendPrefix(cfg, true, q, in, m, inclusive)
}

// Trace captures the per-phase snapshots of one D_prefix run, indexed by
// element (data) position — the six panels of the paper's Figure 3.
type Trace[T any] struct {
	Phases []Phase[T]
}

// Phase is one snapshot: the prefix variable s and the total variable t of
// every node, in element order.
type Phase[T any] struct {
	Label string
	S     []T
	T     []T
}

// addPhase allocates a snapshot to be filled in by the kernel.
func (tr *Trace[T]) addPhase(label string, n int) *Phase[T] {
	tr.Phases = append(tr.Phases, Phase[T]{Label: label, S: make([]T, n), T: make([]T, n)})
	return &tr.Phases[len(tr.Phases)-1]
}

// DPrefix runs Algorithm 2 on the dual-cube D_n. The input is in element
// order under the paper's block layout: element idx lives on node
// NodeAtDataIndex(idx), so each cluster holds a consecutive block. The
// result is the prefix of in (inclusive, or diminished when inclusive is
// false), again in element order.
//
// The five steps of Algorithm 2, executed by every node u with local
// cluster index x and element block b:
//
//  1. inclusive prefix inside the cluster (n-1 exchanges): t = block total,
//     s = prefix within the block;
//  2. exchange t over the cross-edge (1 cycle): afterwards the nodes of
//     every cluster of one class hold the block totals of the other class,
//     in local-index order (the cross-edge permutation transposes the two
//     address fields, which is exactly why the layout swaps them);
//  3. diminished prefix of the received totals inside the cluster (n-1
//     exchanges): s' = combined totals of the other class's blocks before
//     the cross partner's block, t' = the other class's grand total;
//  4. exchange s' back over the cross-edge (1 cycle) and fold it into s;
//  5. class-1 nodes additionally fold in the class-0 grand total t',
//     which step 3 left on the class-1 nodes themselves — a purely local
//     computation round in this layout (the paper schedules a third
//     cross-edge step here; either way Theorem 1's bound of 2n+1
//     communication steps holds, ours measures exactly 2n).
//
// tr may be nil; when non-nil it receives the Figure 3 phase snapshots.
func DPrefix[T any](cfg machine.Config, n int, in []T, m monoid.Monoid[T], inclusive bool, tr *Trace[T]) ([]T, machine.Stats, error) {
	d, err := topology.Validated(n, len(in))
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return DPrefixOn(cfg, d, in, m, inclusive, tr)
}

// DPrefixOn is DPrefix over an explicit communication topology: Algorithm 2
// runs unchanged on any Comm — dual-cube, odd hypercube or Z-cube — because
// every exchange uses only the cluster decomposition the interface
// guarantees. The input is in element order under the topology's block
// layout (DataIndex), exactly as for DPrefix.
func DPrefixOn[T any](cfg machine.Config, d topology.Comm, in []T, m monoid.Monoid[T], inclusive bool, tr *Trace[T]) ([]T, machine.Stats, error) {
	if err := topology.ValidLen(d, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}

	// snap stays nil without tracing so steady-state runs skip the closure.
	var snap func(i int, idx int, s, t T)
	if tr != nil {
		var snaps []*Phase[T]
		for _, label := range []string{
			"(a) original data distribution",
			"(b) prefix inside cluster (t, s)",
			"(c) exchange t via cross-edge",
			"(d) prefix of totals inside cluster (t', s')",
			"(e) get s' and prefix one more time",
			"(f) final result (class 1 + t')",
		} {
			snaps = append(snaps, tr.addPhase(label, d.Nodes()))
		}
		snap = func(i int, idx int, s, t T) {
			snaps[i].S[idx] = s
			snaps[i].T[idx] = t
		}
	}

	sch, err := dcomm.Compiled(d, dcomm.OpPrefix)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	out := make([]T, len(in))
	st, err := dcomm.Execute(sch, cfg, newPrefixKernel(d, m, inclusive, in, out, snap))
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// DPrefixRecorded is DPrefix with full message recording (per-link loads
// and the space-time event log) for the traffic analysis of experiment
// E14. Tracing snapshots are not supported in this variant.
func DPrefixRecorded[T any](cfg machine.Config, n int, in []T, m monoid.Monoid[T], inclusive bool) ([]T, machine.Stats, *machine.Recording, error) {
	d, err := topology.Validated(n, len(in))
	if err != nil {
		return nil, machine.Stats{}, nil, err
	}
	sch, err := dcomm.Compiled(d, dcomm.OpPrefix)
	if err != nil {
		return nil, machine.Stats{}, nil, err
	}
	out := make([]T, len(in))
	st, rec, err := machine.RunRecorded(sch, cfg, newPrefixKernel(d, m, inclusive, in, out, nil))
	if err != nil {
		return nil, st, nil, err
	}
	return out, st, rec, nil
}

// EmulatedCubePrefix is the ablation of experiment E4: run Algorithm 1 for
// the (2n-1)-cube directly on D_n via the recursive presentation — a
// "normal" ascend algorithm executed through internal/emulate — paying the
// 3-cycle relay for every dimension above 0 instead of using the cluster
// technique. Input and output are in recursive-ID order. It costs 6n-5
// communication steps versus D_prefix's 2n, demonstrating why the cluster
// technique matters.
func EmulatedCubePrefix[T any](cfg machine.Config, n int, in []T, m monoid.Monoid[T], inclusive bool) ([]T, machine.Stats, error) {
	return ascendPrefix(cfg, false, n, in, m, inclusive)
}

// ascendPrefix runs Algorithm 1 as a normal ascend algorithm: on Q_order
// (emulate.CubeAscend) when cube is set, emulated on D_order
// (emulate.Ascend) otherwise. Every node carries its (subcube total,
// subcube prefix) pair; at each dimension the upper node folds the lower
// half's total into both, the lower node into its total — strictly
// lower-half-first, so non-commutative monoids work.
func ascendPrefix[T any](cfg machine.Config, cube bool, order int, in []T, m monoid.Monoid[T], inclusive bool) ([]T, machine.Stats, error) {
	init := make([]totalPrefix[T], len(in))
	for i, v := range in {
		init[i] = totalPrefix[T]{t: v, s: v}
		if !inclusive {
			init[i].s = m.Identity()
		}
	}
	ascend := emulate.Ascend[totalPrefix[T]]
	if cube {
		ascend = emulate.CubeAscend[totalPrefix[T]]
	}
	pairs, st, err := ascend(cfg, order, init, func(dim, id int, mine, theirs totalPrefix[T]) totalPrefix[T] {
		if id>>dim&1 == 1 {
			return totalPrefix[T]{t: m.Combine(theirs.t, mine.t), s: m.Combine(theirs.t, mine.s)}
		}
		return totalPrefix[T]{t: m.Combine(mine.t, theirs.t), s: mine.s}
	})
	if err != nil {
		return nil, st, err
	}
	out := make([]T, len(pairs))
	for i, p := range pairs {
		out[i] = p.s
	}
	return out, st, nil
}

// totalPrefix is the (subcube total, subcube prefix) value pair carried by
// the ascend prefix when expressed as a normal algorithm.
type totalPrefix[T any] struct {
	t, s T
}

// MeasuredCommSteps returns the communication steps our D_prefix schedule
// takes on D_n: 2(n-1) intra-cluster exchanges plus 2 cross-edge exchanges.
func MeasuredCommSteps(n int) int { return 2 * n }

// PaperCommBound returns Theorem 1's communication bound for D_n: 2n+1.
func PaperCommBound(n int) int { return 2*n + 1 }

// PaperCompBound returns Theorem 1's computation bound for D_n: 2n.
func PaperCompBound(n int) int { return 2 * n }

// CubeCommSteps returns the communication steps of Algorithm 1 on Q_q: q.
func CubeCommSteps(q int) int { return q }

// EmulatedCommSteps returns the communication steps of the hypercube
// emulation ablation on D_n: 1 + 3(2n-2) = 6n-5.
func EmulatedCommSteps(n int) int { return 6*n - 5 }
