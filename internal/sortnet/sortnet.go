// Package sortnet implements the paper's sorting algorithms: Batcher's
// bitonic sort on the hypercube (Section 5, the baseline) and D_sort
// (Algorithm 3), the bitonic sort on the dual-cube built on the recursive
// presentation of Section 4, plus the large-input merge-split
// generalization from the paper's future-work list.
//
// Keys are placed one per node in recursive-ID order for D_sort (node-ID
// order for the hypercube); the sorted sequence is read back in the same
// order. Both algorithms report machine statistics so the harness can check
// Theorem 2: D_sort takes exactly 6n²-7n+2 communication steps (paper
// bound: at most 6n²) and 2n²-n comparison rounds (bound 2n²) on D_n.
package sortnet

import (
	"fmt"
	"slices"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Order selects the direction of the final sorted sequence — the paper's
// boolean tag (0 ascending, 1 descending).
type Order int

const (
	// Ascending sorts smallest first (tag = 0).
	Ascending Order = iota
	// Descending sorts largest first (tag = 1).
	Descending
)

// String returns "asc" or "desc" for the two valid directions, and the
// Go-syntax form for anything else — an invalid Order must not label itself
// as either direction (the sort entry points reject it up front).
func (o Order) String() string {
	switch o {
	case Ascending:
		return "asc"
	case Descending:
		return "desc"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// validOrder rejects Order values outside the two-member enum with the
// uniform validation-error wording shared by every sort entry point.
func validOrder(ord Order) error {
	if ord != Ascending && ord != Descending {
		return fmt.Errorf("sortnet: invalid Order(%d): want Ascending or Descending", int(ord))
	}
	return nil
}

// keepMinAt decides which endpoint of a dimension-j pair keeps the smaller
// key: for an ascending subsequence the node whose bit j is 0, for a
// descending one the node whose bit j is 1.
func keepMinAt(id, j int, dir Order) bool {
	bit := id>>j&1 == 1
	if dir == Ascending {
		return !bit
	}
	return bit
}

// CubeSort runs Batcher's bitonic sort on the hypercube Q_q: keys[u] is
// placed on node u, and the result is the sorted permutation in node-ID
// order. It performs q(q+1)/2 compare-exchange steps, each a single
// communication cycle, over the compiled schedule — the direct kernel
// executor by default, or a simulator engine when cfg names one.
func CubeSort[K any](cfg machine.Config, q int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, error) {
	h, err := topology.NewHypercube(q)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	if len(keys) != h.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("sortnet: %d keys for %d nodes of %s", len(keys), h.Nodes(), h.Name())
	}
	if err := validOrder(ord); err != nil {
		return nil, machine.Stats{}, err
	}
	sch, err := dcomm.CompiledCubeSort(h)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	// Sort IDs are node IDs on the hypercube: the keys load as they are.
	key := slices.Clone(keys)
	kern := &exchKernel[K]{less: less, ord: ord, steps: sch.Steps, id: sch.SortIDs(), key: key}
	st, err := dcomm.Execute(sch, cfg, kern)
	if err != nil {
		return nil, st, err
	}
	return key, st, nil
}

// Trace records the evolution of the key vector during a D_sort run: the
// input followed by one snapshot per compare-exchange step, in recursive-ID
// order. It reproduces the paper's Figures 5 and 6.
type Trace[K any] struct {
	Steps []Step[K]
}

// Step is one snapshot of the keys after a parallel compare-exchange.
type Step[K any] struct {
	Label string // e.g. "level 2 half-merge dim 1"
	Level int    // sub-dual-cube order being merged (0 for the input row)
	Dim   int    // recursive dimension of the step (-1 for the input row)
	Keys  []K    // keys by recursive ID after the step
}

// traceStep preallocates the Figure 5/6 snapshot of one D_sort schedule
// step on D_n, labelled from the step's orientation: the merge over dims
// top..0 is oriented by sort-ID bit top+1, the outermost (top = 2n-2) by
// the requested Order. An odd top is level (top+3)/2's half-merge, an even
// top level top/2+1's final merge — level 1's is the base sort.
func traceStep[K any](st *machine.Step, n, nodes int) Step[K] {
	top := 2*n - 2
	if b := st.Orient.Bit(); b >= 0 {
		top = b - 1
	}
	level, phase := top/2+1, "final-merge"
	if top%2 == 1 {
		level, phase = (top+3)/2, "half-merge"
	} else if level == 1 {
		phase = "base-sort"
	}
	label := fmt.Sprintf("level %d %s dim %d", level, phase, st.Dim)
	return Step[K]{Label: label, Level: level, Dim: st.Dim, Keys: make([]K, nodes)}
}

// DSort runs Algorithm 3 on the dual-cube D_n: keys[r] is placed on the
// node with recursive ID r and the result is the sorted permutation in
// recursive-ID order (ascending or descending per ord, the paper's tag).
//
// The recursion runs iteratively as dcomm's compiled OpDSort ladder (see
// OpDSort for its levels and orientations): every dimension-j step is a
// cross hop for j = 0 and a 3-cycle StepRecDim exchange otherwise (half
// the pairs route through two cross-edges), run on the direct kernel
// executor by default, or interpreted on a simulator engine when cfg names
// one. tr may be nil; when non-nil it receives the Figure 5/6
// snapshots.
func DSort[K any](cfg machine.Config, n int, keys []K, less func(a, b K) bool, ord Order, tr *Trace[K]) ([]K, machine.Stats, error) {
	d, err := topology.Validated(n, len(keys))
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return DSortOn(cfg, d, keys, less, ord, tr)
}

// DSortOn is DSort over an explicit communication topology carrying the
// recursive presentation: the same merge ladder runs on the dual-cube, the
// odd hypercube and the Z-cube, whose recursive IDs all coincide with the
// embedded D_n's.
func DSortOn[K any](cfg machine.Config, d topology.Recursive, keys []K, less func(a, b K) bool, ord Order, tr *Trace[K]) ([]K, machine.Stats, error) {
	n := d.Order()
	if err := topology.ValidLen(d, len(keys)); err != nil {
		return nil, machine.Stats{}, err
	}
	if err := validOrder(ord); err != nil {
		return nil, machine.Stats{}, err
	}
	sch, err := dcomm.Compiled(d, dcomm.OpDSort)
	if err != nil {
		return nil, machine.Stats{}, err
	}

	// Optional tracing: preallocate one snapshot per scheduled step.
	var snaps []Step[K]
	tr0 := 0
	if tr != nil {
		tr0 = len(tr.Steps)
		tr.Steps = append(tr.Steps, Step[K]{Label: "input", Level: 0, Dim: -1, Keys: append([]K(nil), keys...)})
		for i := range sch.Steps {
			tr.Steps = append(tr.Steps, traceStep[K](&sch.Steps[i], n, d.Nodes()))
		}
		snaps = tr.Steps[tr0+1:]
	}

	kern := newDSortKernel(sch, keys, less, ord, snaps)
	st, err := dcomm.Execute(sch, cfg, kern)
	if err != nil {
		if tr != nil {
			// Discard the preallocated snapshots: a failed run leaves them as
			// zero-value garbage, not Figure 5/6 data.
			tr.Steps = tr.Steps[:tr0]
		}
		return nil, st, err
	}
	return kern.unload(make([]K, len(keys))), st, nil
}

// DSortRecorded is DSort with full message recording (per-link loads and
// the space-time event log) for the traffic analysis of experiment E14.
// Recording is an engine facility, so this always runs the kernel on the
// engine (machine.RunRecorded), whatever cfg.Sched says.
func DSortRecorded[K any](cfg machine.Config, n int, keys []K, less func(a, b K) bool, ord Order) ([]K, machine.Stats, *machine.Recording, error) {
	d, err := topology.Validated(n, len(keys))
	if err != nil {
		return nil, machine.Stats{}, nil, err
	}
	if err := validOrder(ord); err != nil {
		return nil, machine.Stats{}, nil, err
	}
	sch, err := dcomm.Compiled(d, dcomm.OpDSort)
	if err != nil {
		return nil, machine.Stats{}, nil, err
	}
	kern := newDSortKernel(sch, keys, less, ord, nil)
	st, rec, err := machine.RunRecorded(sch, cfg, kern)
	if err != nil {
		return nil, st, nil, err
	}
	return kern.unload(make([]K, len(keys))), st, rec, nil
}

// DSortCommSteps returns the exact communication time of our D_sort
// schedule on D_n: T(1) = 1, T(n) = T(n-1) + 3(2n-3)+1 + 3(2n-2)+1,
// which solves to 6n²-7n+2.
func DSortCommSteps(n int) int { return 6*n*n - 7*n + 2 }

// DSortCompSteps returns the comparison rounds of D_sort on D_n:
// T(1) = 1, T(n) = T(n-1) + (2n-2) + (2n-1) = 2n²-n.
func DSortCompSteps(n int) int { return 2*n*n - n }

// PaperSortCommBound returns Theorem 2's communication bound, 6n².
func PaperSortCommBound(n int) int { return 6 * n * n }

// PaperSortCompBound returns Theorem 2's computation bound, 2n².
func PaperSortCompBound(n int) int { return 2 * n * n }

// CubeSortSteps returns the compare-exchange steps (= communication steps)
// of bitonic sort on Q_q: q(q+1)/2.
func CubeSortSteps(q int) int { return q * (q + 1) / 2 }
