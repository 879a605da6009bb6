package prefix

import (
	"fmt"
	"math/rand"
	"testing"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// runLanePrefix executes a batched prefix pass over the compiled schedule
// and returns the k result vectors.
func runLanePrefix[E any](t *testing.T, n int, m monoid.Monoid[E], inclusive bool, in [][]E) [][]E {
	t.Helper()
	d := topology.MustDualCube(n)
	sch, err := dcomm.Compiled(d, dcomm.OpPrefix)
	if err != nil {
		t.Fatal(err)
	}
	k := len(in)
	lanes := machine.NewLanes[E](d.Nodes(), k)
	out := make([][]E, k)
	for i := range out {
		out[i] = make([]E, d.Nodes())
	}
	kern := NewLaneKernel(d, m, inclusive, lanes, in, out)
	if _, err := dcomm.Execute(sch, machine.Config{}, kern); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLanePrefixMatchesUnbatched is the differential requirement: a k-lane
// batched pass must be element-identical to k separate DPrefix calls.
func TestLanePrefixMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4} {
		d := topology.MustDualCube(n)
		for _, k := range []int{1, 2, 5, 8} {
			for _, inclusive := range []bool{true, false} {
				in := make([][]int64, k)
				for l := range in {
					in[l] = make([]int64, d.Nodes())
					for i := range in[l] {
						in[l][i] = int64(rng.Intn(2001) - 1000)
					}
				}
				got := runLanePrefix(t, n, monoid.Sum[int64](), inclusive, in)
				for l := 0; l < k; l++ {
					want, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in[l], monoid.Sum[int64](), inclusive, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[l][i] != want[i] {
							t.Fatalf("n=%d k=%d inclusive=%v lane %d: out[%d]=%d, want %d",
								n, k, inclusive, l, i, got[l][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestLanePrefixNonCommutative pins the per-lane combine order: under
// string concatenation any reordering or re-association with a wrong
// operand side changes the output.
func TestLanePrefixNonCommutative(t *testing.T) {
	n := 3
	d := topology.MustDualCube(n)
	k := 3
	in := make([][]string, k)
	for l := range in {
		in[l] = make([]string, d.Nodes())
		for i := range in[l] {
			in[l][i] = fmt.Sprintf("%c%d.", 'a'+l, i)
		}
	}
	got := runLanePrefix(t, n, monoid.Concat(), true, in)
	for l := 0; l < k; l++ {
		want, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in[l], monoid.Concat(), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[l][i] != want[i] {
				t.Fatalf("lane %d: out[%d]=%q, want %q", l, i, got[l][i], want[i])
			}
		}
	}
}
