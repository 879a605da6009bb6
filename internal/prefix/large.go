package prefix

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// DPrefixLarge generalizes D_prefix to input sequences larger than the
// network — the first item of the paper's future-work list. The input of
// length k * 2^(2n-1) is split into contiguous chunks of k elements, chunk
// idx on node NodeAtDataIndex(idx). Each node scans its chunk locally
// (k-1 combines), the chunk totals flow through Algorithm 2 as a diminished
// prefix (2n communication steps), and the received offset is folded into
// each local result (k more combines). Communication cost is independent
// of k; only the payload work grows.
func DPrefixLarge[T any](cfg machine.Config, c topology.Comm, k int, in []T, m monoid.Monoid[T], inclusive bool) ([]T, machine.Stats, error) {
	if k < 1 {
		return nil, machine.Stats{}, fmt.Errorf("prefix: chunk size %d < 1", k)
	}
	if len(in) != k*c.Nodes() {
		return nil, machine.Stats{}, fmt.Errorf("prefix: input length %d != k*N = %d", len(in), k*c.Nodes())
	}
	sch, err := dcomm.Compiled(c, dcomm.OpPrefix)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	out := make([]T, len(in))
	st, err := dcomm.Execute(sch, cfg, newLargeKernel(c, m, k, inclusive, in, out))
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
