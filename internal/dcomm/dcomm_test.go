package dcomm

import (
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// TestDimExchangeAllDims checks that the parallel dimension-j exchange
// delivers exactly the dimension-j partner's value to every node, for
// every recursive dimension, in 1 cycle on the cross-edge dimension 0 (all
// pairs direct) and 3 on the others (Section 6: half the pairs route
// through two cross-edges).
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
			want := 3
			if j == 0 {
				want = 1
			}
			if st.Cycles != want {
				t.Errorf("n=%d j=%d: cycles %d, want %d", n, j, st.Cycles, want)
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
