package machine

import (
	"fmt"
	"strings"
	"testing"

	"dualcube/internal/topology"
)

// faultSchedulers runs the test body on the engine.
func faultSchedulers(t *testing.T, body func(t *testing.T, cfg Config)) {
	t.Helper()
	t.Run("worker-pool", func(t *testing.T) { body(t, Config{Sched: SchedWorkerPool}) })
}

// TestFaultDownLinkPlainSendFails checks fail-fast: a send on a failed link
// aborts the run with a protocol error instead of wedging or silently
// dropping.
func TestFaultDownLinkPlainSendFails(t *testing.T) {
	d := topology.MustDualCube(2)
	spec := &FaultSpec{Links: [][2]int{{0, d.CrossNeighbor(0)}}}
	faultSchedulers(t, func(t *testing.T, cfg Config) {
		cfg.Faults = spec
		_, err := mustEngine[int](t, d, cfg).run(func(c *ctx[int]) {
			c.Exchange(d.CrossNeighbor(c.ID()), c.ID())
		})
		if err == nil || !strings.Contains(err.Error(), "failed link") {
			t.Fatalf("err = %v, want failed-link protocol error", err)
		}
	})
}

// TestFaultStatsReproducible runs a program that exchanges on every live
// link and idles on the failed ones, twice, and requires identical Stats,
// including the fault figures — the determinism contract of the subsystem.
func TestFaultStatsReproducible(t *testing.T) {
	d := topology.MustDualCube(3)
	dead := [][2]int{{0, d.ClusterNeighbor(0, 0)}, {5, d.CrossNeighbor(5)}}
	spec := &FaultSpec{Links: dead}
	isDead := func(u, v int) bool {
		for _, l := range dead {
			if (l[0] == u && l[1] == v) || (l[0] == v && l[1] == u) {
				return true
			}
		}
		return false
	}
	exchangeOrIdle := func(c *ctx[int], v int) {
		if isDead(c.ID(), v) {
			c.Idle()
		} else {
			c.Exchange(v, c.ID())
		}
	}
	program := func(c *ctx[int]) {
		for i := 0; i < d.ClusterDim(); i++ {
			exchangeOrIdle(c, d.ClusterNeighbor(c.ID(), i))
		}
		exchangeOrIdle(c, d.CrossNeighbor(c.ID()))
	}
	var ref *Stats
	faultSchedulers(t, func(t *testing.T, cfg Config) {
		cfg.Faults = spec
		for run := 0; run < 2; run++ {
			st, err := mustEngine[int](t, d, cfg).run(program)
			if err != nil {
				t.Fatal(err)
			}
			if st.Faults.DownLinks != 2*len(dead) {
				t.Fatalf("Faults = %+v, want %d directed down links", st.Faults, 2*len(dead))
			}
			if want := int64(d.Nodes()*d.Order() - 2*len(dead)); st.Messages != want {
				t.Fatalf("Messages = %d, want %d (every live directed link once)", st.Messages, want)
			}
			if ref == nil {
				ref = &st
			} else if st != *ref {
				t.Errorf("stats diverge:\n  first: %+v\n  now:   %+v", *ref, st)
			}
		}
	})
}

// TestFaultSpecInvalid checks that a spec naming an endpoint outside the
// machine or a pair that is not an edge fails the run up front, with the
// same error on the engine and on the direct executor — both compile specs
// through downSet.
func TestFaultSpecInvalid(t *testing.T) {
	sch := directTestSchedule(t, 2)
	d := sch.D
	for _, l := range [][2]int{
		{99, 0}, // endpoint past the last node
		{-1, 0}, // negative endpoint
		{0, 3},  // two nodes of D_2 that are not adjacent
	} {
		spec := &FaultSpec{Links: [][2]int{l}}
		want := fmt.Sprintf("machine: fault plan fails link %d-%d, which is not a link", l[0], l[1])

		_, err := mustEngine[int](t, d, Config{Faults: spec}).run(func(c *ctx[int]) { c.Idle() })
		if err == nil || err.Error() != want {
			t.Errorf("engine, link %v: err = %v, want %q", l, err, want)
		}

		k, _ := sumKernel(d.Nodes())
		_, err = RunDirect(sch, Config{Faults: spec}, DirectKernel[int](k))
		if err == nil || err.Error() != want {
			t.Errorf("direct, link %v: err = %v, want %q", l, err, want)
		}
	}
}

// TestStatsAddFaults checks the composite-phase accounting of the fault
// figures: the static plan figure carries through, from either side.
func TestStatsAddFaults(t *testing.T) {
	planned := Stats{Nodes: 8, Faults: FaultStats{DownLinks: 2}}
	clean := Stats{Nodes: 8}
	for _, tc := range []struct{ a, b Stats }{{planned, planned}, {planned, clean}, {clean, planned}} {
		if got := tc.a.Add(tc.b).Faults; got != planned.Faults {
			t.Errorf("Add faults %+v + %+v = %+v, want %+v", tc.a.Faults, tc.b.Faults, got, planned.Faults)
		}
	}
}
