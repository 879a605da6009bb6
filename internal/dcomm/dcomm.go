// Package dcomm provides the elementary dual-cube communication steps that
// the paper's algorithms are built from: the compiled schedules of the
// cluster technique (Section 3) and of the recursive technique's sort
// (Sections 4 and 6), the front that executes them, their fault rewrites,
// and the node-level intra-cluster and cross-edge exchanges.
package dcomm

import (
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// ClusterExchange performs the bidirectional exchange with this node's
// neighbor along cluster dimension i (0 <= i < n-1). One clock cycle.
func ClusterExchange[T any](c *machine.Ctx[T], d topology.Comm, i int, v T) T {
	return c.Exchange(d.ClusterNeighbor(c.ID(), i), v)
}

// CrossExchange performs the bidirectional exchange over this node's
// cross-edge. One clock cycle.
func CrossExchange[T any](c *machine.Ctx[T], d topology.Comm, v T) T {
	return c.Exchange(d.CrossNeighbor(c.ID()), v)
}

// CyclesForDim returns the clock cycles a parallel dimension-j exchange
// takes on D_n: 1 for the cross-edge dimension (j = 0, all pairs direct),
// 3 otherwise (Section 6: "a parallel compare-and-exchange operation for
// all pairs of nodes at the ith dimension takes three time-units", because
// half the pairs must route through two cross-edges).
func CyclesForDim(j int) int {
	if j == 0 {
		return 1
	}
	return 3
}
