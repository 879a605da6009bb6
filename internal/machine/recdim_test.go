package machine

import (
	"fmt"
	"testing"

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
			got := make([]int, d.Nodes())
			st, err := mustEngine[int](t, d, Config{}).run(func(c *ctx[int]) {
				r := d.ToRecursive(c.ID())
				got[r] = recDimExchange(c, d, j, r*10+1)
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
	sum := make([]int, d.Nodes())
	_, err := mustEngine[int](t, d, Config{}).run(func(c *ctx[int]) {
		r := d.ToRecursive(c.ID())
		acc := 0
		for j := 0; j < d.RecDims(); j++ {
			acc += recDimExchange(c, d, j, r)
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

// BenchmarkStepKinds isolates the simulator's per-cycle cost for the two
// kinds of dimension step D_sort uses: the 1-cycle cross-edge exchange and
// the 3-cycle routed exchange (the ablation behind Theorem 2's constant).
// Each iteration is one oracle run, engine construction included.
func BenchmarkStepKinds(b *testing.B) {
	d := topology.MustDualCube(4)
	for _, bc := range []struct {
		name string
		j    int
	}{{"cross-exchange-1cycle", 0}, {"routed-exchange-3cycles", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mustEngine[int](b, d, Config{}).run(func(c *ctx[int]) { recDimExchange(c, d, bc.j, c.ID()) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachineBarrier measures the raw lockstep cost: 100 exchange
// cycles over the cross-edges, engine construction included.
func BenchmarkMachineBarrier(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		d := topology.MustDualCube(n)
		b.Run(fmt.Sprintf("D_%d/nodes=%d", n, d.Nodes()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mustEngine[int](b, d, Config{}).run(func(c *ctx[int]) {
					for k := 0; k < 100; k++ {
						c.Exchange(d.CrossNeighbor(c.ID()), k)
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
