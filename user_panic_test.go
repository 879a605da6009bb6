package dualcube

import (
	"regexp"
	"slices"
	"testing"

	"dualcube/internal/machine"
)

// TestUserPanicsBecomeErrors hands the library a user less or combine that
// panics and requires every backend to return the run's "node u panicked"
// error instead of crashing — the direct executor on its serial pass (D_3)
// and on a sharded pass (D_7, past the 4096-node sharding threshold), and
// both engines — after which the same Runtime must serve the next call.
func TestUserPanicsBecomeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("D_7 sharded case skipped in -short mode")
	}
	badLess := func(a, b int) bool { panic("user less exploded") }
	badCombine := func(a, b int) int { panic("user combine exploded") }
	calls := []struct {
		name, value string
		run         func(rt *Runtime, in []int) error
	}{
		{"SortFunc", "user less exploded", func(rt *Runtime, in []int) error {
			_, _, err := SortFuncOn(rt, in, badLess, Ascending)
			return err
		}},
		{"SortLargeFunc", "user less exploded", func(rt *Runtime, in []int) error {
			// Two keys per node: the panic fires in the local pre-sort.
			_, _, err := SortLargeFuncOn(rt, 2, append(in, in...), badLess, Descending)
			return err
		}},
		{"PrefixFunc", "user combine exploded", func(rt *Runtime, in []int) error {
			_, _, err := PrefixFuncOn(rt, in, func() int { return 0 }, badCombine, true)
			return err
		}},
	}
	for _, tc := range []struct {
		backend string
		sched   machine.Sched
		n       int
		node0   bool // the lowest panicking node is reported deterministically
	}{
		{"direct", machine.SchedDirect, 3, true},
		{"direct-sharded", machine.SchedDirect, 7, true},
		{"worker-pool", machine.SchedWorkerPool, 3, false},
		{"goroutine-per-node", machine.SchedGoroutinePerNode, 3, false},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			rt := runtimeWith(t, "dualcube", tc.n, machine.Config{Sched: tc.sched, Workers: 4})
			in := make([]int, rt.Nodes())
			for i := range in {
				in[i] = (i * 7919) % len(in)
			}
			for _, c := range calls {
				err := c.run(rt, in)
				node := `\d+`
				if tc.node0 {
					node = "0"
				}
				if err == nil || !regexp.MustCompile(`^machine: node `+node+` panicked: `+c.value+`$`).MatchString(err.Error()) {
					t.Errorf("%s: err = %v, want machine: node %s panicked: %s", c.name, err, node, c.value)
				}
				got, _, err := SortOn(rt, in, Ascending)
				if err != nil || !slices.IsSorted(got) {
					t.Fatalf("%s: the next call on the same Runtime failed: err = %v", c.name, err)
				}
			}
		})
	}
}
