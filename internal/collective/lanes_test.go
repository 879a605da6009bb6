package collective

import (
	"math/rand"
	"testing"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// TestLaneAllReduceMatchesUnbatched: a k-lane batched all-reduce must
// deliver, on every lane, exactly what the single-lane AllReduce computes
// (same combine order, so exact equality — checked under concatenation
// too, where order errors cannot cancel).
func TestLaneAllReduceMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4} {
		d := topology.MustDualCube(n)
		sch, err := dcomm.Compiled(d, dcomm.OpAllReduce)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 8} {
			in := make([][]int64, k)
			res := make([][]int64, k)
			for l := range in {
				in[l] = make([]int64, d.Nodes())
				for i := range in[l] {
					in[l][i] = int64(rng.Intn(4001) - 2000)
				}
				res[l] = make([]int64, d.Nodes())
			}
			lanes := machine.NewLanes[int64](d.Nodes(), k)
			kern := NewLaneAllReduceKernel(d, monoid.Sum[int64](), lanes, in, res)
			if _, err := dcomm.Execute(sch, machine.Config{}, kern); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < k; l++ {
				want, _, err := AllReduce(machine.Config{}, topology.MustDualCube(n), in[l], monoid.Sum[int64]())
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if res[l][i] != want[i] {
						t.Fatalf("n=%d k=%d lane %d: res[%d]=%d, want %d", n, k, l, i, res[l][i], want[i])
					}
				}
			}
		}
	}
}

// TestLaneBroadcastAllRoots floods k distinct values from every possible
// root and checks each lane delivers its value everywhere.
func TestLaneBroadcastAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		d := topology.MustDualCube(n)
		sch, err := dcomm.Compiled(d, dcomm.OpBroadcast)
		if err != nil {
			t.Fatal(err)
		}
		k := 4
		for root := 0; root < d.Nodes(); root++ {
			values := make([]int64, k)
			for l := range values {
				values[l] = int64(1000*root + l)
			}
			lanes := machine.NewLanes[int64](d.Nodes(), k)
			kern := NewLaneBroadcastKernel(d, root, lanes, values)
			if _, err := dcomm.Execute(sch, machine.Config{}, kern); err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			if err := kern.Verify(); err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			for u := 0; u < d.Nodes(); u++ {
				got := kern.Value(u)
				for l := range values {
					if got[l] != values[l] {
						t.Fatalf("n=%d root=%d node %d lane %d: got %d, want %d",
							n, root, u, l, got[l], values[l])
					}
				}
			}
		}
	}
}
