package sortnet

import (
	"math/rand"
	"testing"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// TestLaneSortMatchesUnbatched: a batched pass with mixed ascending and
// descending lanes must reproduce, per lane, exactly what DSort returns for
// that lane's keys and direction.
func TestLaneSortMatchesUnbatched(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	less := func(a, b int64) bool { return a < b }
	for _, n := range []int{2, 3, 4} {
		d := topology.MustDualCube(n)
		sch, err := dcomm.Compiled(d, dcomm.OpDSort)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 6, 8} {
			keys := make([][]int64, k)
			ords := make([]Order, k)
			for l := range keys {
				keys[l] = make([]int64, d.Nodes())
				for i := range keys[l] {
					keys[l][i] = int64(rng.Intn(1 << 12))
				}
				if l%2 == 1 {
					ords[l] = Descending
				}
			}
			lanes := machine.NewLanes[int64](d.Nodes(), k)
			kern, err := NewLaneSortKernel(d, lanes, keys, less, ords)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dcomm.Execute(sch, machine.Config{}, kern); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < k; l++ {
				want, _, err := DSort(machine.Config{}, topology.MustDualCube(n), keys[l], less, ords[l], nil)
				if err != nil {
					t.Fatal(err)
				}
				got := kern.Unload(l, make([]int64, d.Nodes()))
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d lane %d (%v): out[%d]=%d, want %d",
							n, k, l, ords[l], i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLaneSortRejects pins the constructor's validation.
func TestLaneSortRejects(t *testing.T) {
	d := topology.MustDualCube(2)
	lanes := machine.NewLanes[int64](d.Nodes(), 2)
	less := func(a, b int64) bool { return a < b }
	keys := [][]int64{make([]int64, d.Nodes())}
	if _, err := NewLaneSortKernel(d, lanes, keys, less, []Order{Ascending, Descending}); err == nil {
		t.Fatal("mismatched lane count accepted")
	}
	if _, err := NewLaneSortKernel(d, lanes, keys, less, []Order{Order(7)}); err == nil {
		t.Fatal("invalid order accepted")
	}
}
