// Package emulate is the paper's recursive technique as a reusable
// framework: it runs arbitrary "normal" hypercube algorithms — ascend
// (dimensions low to high) and descend (high to low) algorithms in
// Leighton's sense — on the dual-cube through the recursive presentation of
// Section 4. Every dimension step is a full pairwise exchange, direct for
// matching-parity nodes and routed in 3 cycles otherwise, so any normal
// algorithm for Q_{2n-1} runs on D_n with worst-case communication overhead
// 3 (Section 7's concluding remark).
//
// The paper's own D_sort is one instance of this pattern; the package also
// powers the hypercube-prefix ablation and the distributed NTT in
// internal/ntt.
package emulate

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// StepFunc computes a node's new value after the dimension-dim exchange:
// id is the node's (recursive, for dual-cube) address, mine its current
// value and theirs the partner's. It must be a pure function — it runs
// once per node per dimension, concurrently across nodes.
type StepFunc[T any] func(dim, id int, mine, theirs T) T

// dims enumerates q dimensions in ascend or descend order.
func dims(q int, descend bool) []int {
	out := make([]int, q)
	for i := range out {
		if descend {
			out[i] = q - 1 - i
		} else {
			out[i] = i
		}
	}
	return out
}

// run executes a normal algorithm on D_n. init and the result are indexed
// by recursive ID.
func run[T any](cfg machine.Config, n int, init []T, step StepFunc[T], descend bool) ([]T, machine.Stats, error) {
	d, err := topology.Validated(n, len(init))
	if err != nil {
		return nil, machine.Stats{}, err
	}
	order := dims(d.RecDims(), descend)
	out := make([]T, len(init))
	eng, err := machine.New[T](d, cfg)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	defer eng.Release()
	st, err := eng.Run(func(c *machine.Ctx[T]) {
		r := d.ToRecursive(c.ID())
		v := init[r]
		for _, j := range order {
			theirs := machine.RecDimExchange(c, d, j, v)
			v = step(j, r, v, theirs)
			c.Ops(1)
		}
		out[r] = v
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// Ascend runs a normal ascend algorithm (dimensions 0 .. 2n-2) on D_n.
func Ascend[T any](cfg machine.Config, n int, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	return run(cfg, n, init, step, false)
}

// Descend runs a normal descend algorithm (dimensions 2n-2 .. 0) on D_n.
func Descend[T any](cfg machine.Config, n int, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	return run(cfg, n, init, step, true)
}

// CommSteps returns the communication cycles of one full normal sweep on
// D_n: 1 cycle for dimension 0 plus 3 for each of the other 2n-2
// dimensions, i.e. 6n-5.
func CommSteps(n int) int { return 6*n - 5 }

// cubeRun executes a normal algorithm on the hypercube Q_q (the baseline:
// one cycle per dimension).
func cubeRun[T any](cfg machine.Config, q int, init []T, step StepFunc[T], descend bool) ([]T, machine.Stats, error) {
	h, err := topology.NewHypercube(q)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	if len(init) != h.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("emulate: %d values for %d nodes of %s", len(init), h.Nodes(), h.Name())
	}
	order := dims(q, descend)
	out := make([]T, len(init))
	eng, err := machine.New[T](h, cfg)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	defer eng.Release()
	st, err := eng.Run(func(c *machine.Ctx[T]) {
		u := c.ID()
		v := init[u]
		for _, j := range order {
			theirs := c.Exchange(u^1<<j, v)
			v = step(j, u, v, theirs)
			c.Ops(1)
		}
		out[u] = v
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// CubeAscend runs a normal ascend algorithm on Q_q.
func CubeAscend[T any](cfg machine.Config, q int, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	return cubeRun(cfg, q, init, step, false)
}

// CubeDescend runs a normal descend algorithm on Q_q.
func CubeDescend[T any](cfg machine.Config, q int, init []T, step StepFunc[T]) ([]T, machine.Stats, error) {
	return cubeRun(cfg, q, init, step, true)
}
