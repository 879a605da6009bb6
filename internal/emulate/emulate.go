// Package emulate is the paper's recursive technique as a reusable
// framework: it runs arbitrary "normal" ascend algorithms in Leighton's
// sense (dimensions low to high) on the dual-cube through the recursive
// presentation of Section 4. Every dimension step is a full pairwise
// exchange, direct for matching-parity nodes and routed in 3 cycles
// otherwise, so any normal algorithm for Q_{2n-1} runs on D_n with
// worst-case communication overhead 3 (Section 7's concluding remark).
//
// An algorithm is a StepFunc run by one kernel over a compiled sweep —
// dcomm.CompiledSweep on D_n, dcomm.CompiledCubeSweep on the hypercube
// baseline — through dcomm.Execute, like every other operation. The
// paper's own D_sort is one instance of this pattern; the package also
// powers the hypercube-prefix ablation and the distributed NTT in
// internal/ntt.
package emulate

import (
	"fmt"
	"slices"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// StepFunc computes a node's new value after the dimension-dim exchange:
// id is the node's (recursive, for dual-cube) address, mine its current
// value and theirs the partner's. It must be a pure function — it runs
// once per node per dimension, concurrently across nodes.
type StepFunc[T any] func(dim, id int, mine, theirs T) T

// sweepKernel runs a normal algorithm over a sweep schedule, whose step k
// pairs every node along dimension k: each node exchanges its value and
// applies the StepFunc to the partner's, one computation round per step.
// vals is indexed by address, and addr maps a node to its address (nil
// means the node ID itself).
type sweepKernel[T any] struct {
	addr []int32
	vals []T
	step StepFunc[T]
}

func (k *sweepKernel[T]) id(u int) int {
	if k.addr == nil {
		return u
	}
	return int(k.addr[u])
}

func (k *sweepKernel[T]) Produce(dc *machine.DirectCtx, s, u int) (machine.DirectRole, T) {
	return machine.DirectExchange, k.vals[k.id(u)]
}

func (k *sweepKernel[T]) Absorb(dc *machine.DirectCtx, s, u int, v T) {
	r := k.id(u)
	k.vals[r] = k.step(s, r, k.vals[r], v)
	dc.Ops(1)
}

func (k *sweepKernel[T]) Local(dc *machine.DirectCtx, s, u int) {}

// run executes step over sch from init, indexed by address like the result.
func run[T any](cfg machine.Config, sch *machine.Schedule, addr []int32, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	k := &sweepKernel[T]{addr: addr, vals: slices.Clone(init), step: step}
	st, err := dcomm.Execute(sch, cfg, k)
	if err != nil {
		return nil, st, err
	}
	return k.vals, st, nil
}

// Ascend runs a normal ascend algorithm (dimensions 0 .. 2n-2) on c through
// its recursive presentation. init and the result are indexed by recursive
// ID.
func Ascend[T any](cfg machine.Config, c topology.Comm, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(init)); err != nil {
		return nil, machine.Stats{}, err
	}
	addr := make([]int32, c.Nodes())
	for u := range addr {
		addr[u] = int32(c.ToRecursive(u))
	}
	return run(cfg, dcomm.CompiledSweep(c), addr, init, step)
}

// CommSteps returns the communication cycles of one full normal sweep on
// D_n: 1 cycle for dimension 0 plus 3 for each of the other 2n-2
// dimensions, i.e. 6n-5.
func CommSteps(n int) int { return 6*n - 5 }

// CubeAscend runs a normal ascend algorithm on the hypercube Q_q (the
// baseline: one cycle per dimension).
func CubeAscend[T any](cfg machine.Config, q int, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	h, err := topology.NewHypercube(q)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	if len(init) != h.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("emulate: %d values for %d nodes of %s", len(init), h.Nodes(), h.Name())
	}
	sch, err := dcomm.CompiledCubeSweep(h)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return run(cfg, sch, nil, init, step)
}
