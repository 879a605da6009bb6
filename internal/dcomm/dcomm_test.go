package dcomm

import (
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

func TestCyclesForDim(t *testing.T) {
	if CyclesForDim(0) != 1 {
		t.Error("dim 0 should cost 1 cycle")
	}
	for j := 1; j < 9; j++ {
		if CyclesForDim(j) != 3 {
			t.Errorf("dim %d should cost 3 cycles", j)
		}
	}
}

func TestClusterAndCrossExchange(t *testing.T) {
	d := topology.MustDualCube(3)
	eng := machine.MustNew[int](d, machine.Config{})
	got := make([][]int, d.Nodes())
	st, err := eng.Run(func(c *machine.Ctx[int]) {
		u := c.ID()
		var res []int
		for i := 0; i < d.ClusterDim(); i++ {
			res = append(res, ClusterExchange(c, d, i, u))
		}
		res = append(res, CrossExchange(c, d, u))
		got[u] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != d.ClusterDim()+1 {
		t.Errorf("cycles = %d", st.Cycles)
	}
	for u := 0; u < d.Nodes(); u++ {
		for i := 0; i < d.ClusterDim(); i++ {
			if got[u][i] != d.ClusterNeighbor(u, i) {
				t.Fatalf("node %d dim %d: got %d", u, i, got[u][i])
			}
		}
		if got[u][d.ClusterDim()] != d.CrossNeighbor(u) {
			t.Fatalf("node %d cross: got %d", u, got[u][d.ClusterDim()])
		}
	}
}

// TestDimExchangeAllDims checks that the parallel dimension-j exchange
// delivers exactly the dimension-j partner's value to every node, for
// every recursive dimension, and that the cycle counts match CyclesForDim.
func TestDimExchangeAllDims(t *testing.T) {
	for n := 1; n <= 4; n++ {
		d := topology.MustDualCube(n)
		for j := 0; j < d.RecDims(); j++ {
			eng := machine.MustNew[int](d, machine.Config{})
			got := make([]int, d.Nodes())
			st, err := eng.Run(func(c *machine.Ctx[int]) {
				r := d.ToRecursive(c.ID())
				got[r] = machine.RecDimExchange(c, d, j, r*10+1)
			})
			if err != nil {
				t.Fatalf("n=%d j=%d: %v", n, j, err)
			}
			for r := 0; r < d.Nodes(); r++ {
				want := (r^1<<j)*10 + 1
				if got[r] != want {
					t.Fatalf("n=%d j=%d: rec node %d got %d, want %d", n, j, r, got[r], want)
				}
			}
			if st.Cycles != CyclesForDim(j) {
				t.Errorf("n=%d j=%d: cycles %d, want %d", n, j, st.Cycles, CyclesForDim(j))
			}
		}
	}
}

// TestDimExchangeSequence runs all dimensions back to back in one program
// (the way the sort uses it) to confirm the protocol leaves links clean
// between steps.
func TestDimExchangeSequence(t *testing.T) {
	d := topology.MustDualCube(3)
	eng := machine.MustNew[int](d, machine.Config{})
	sum := make([]int, d.Nodes())
	_, err := eng.Run(func(c *machine.Ctx[int]) {
		r := d.ToRecursive(c.ID())
		acc := 0
		for j := 0; j < d.RecDims(); j++ {
			acc += machine.RecDimExchange(c, d, j, r)
		}
		sum[r] = acc
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.Nodes(); r++ {
		want := 0
		for j := 0; j < d.RecDims(); j++ {
			want += r ^ 1<<j
		}
		if sum[r] != want {
			t.Fatalf("rec node %d: %d, want %d", r, sum[r], want)
		}
	}
}
