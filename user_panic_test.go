package dualcube

import (
	"slices"
	"testing"

	"dualcube/internal/machine"
)

// TestUserPanicsBecomeErrors hands the library a user less or combine that
// panics and requires both backends, on D_3, to return the run's "node 0
// panicked" error instead of crashing: the direct executor visits the
// nodes in ascending order, and the engine resumes node 0 first in every
// cycle. The same Runtime must then serve the next call.
func TestUserPanicsBecomeErrors(t *testing.T) {
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
	}{
		{"direct", machine.SchedDefault},
		{"worker-pool", machine.SchedWorkerPool},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			rt := runtimeWith(t, "dualcube", 3, machine.Config{Sched: tc.sched})
			in := make([]int, rt.Nodes())
			for i := range in {
				in[i] = (i * 7919) % len(in)
			}
			for _, c := range calls {
				want := "machine: node 0 panicked: " + c.value
				if err := c.run(rt, in); err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %s", c.name, err, want)
				}
				got, _, err := SortOn(rt, in, Ascending)
				if err != nil || !slices.IsSorted(got) {
					t.Fatalf("%s: the next call on the same Runtime failed: err = %v", c.name, err)
				}
			}
		})
	}
}
