package machine

import (
	"strings"
	"testing"

	"dualcube/internal/topology"
)

func TestRunRecordedEvents(t *testing.T) {
	d := topology.MustDualCube(2)
	e := MustNew[int](d, Config{})
	st, rec, err := e.runRecorded(func(c *ctx[int]) {
		c.Exchange(d.CrossNeighbor(c.ID()), 1)      // cycle 0: 8 messages on cross-edges
		c.Idle()                                    // cycle 1: nothing
		c.Exchange(d.ClusterNeighbor(c.ID(), 0), 2) // cycle 2: 8 messages on cluster edges
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 3 || rec.Cycles != 3 {
		t.Fatalf("cycles = %d/%d", st.Cycles, rec.Cycles)
	}
	if len(rec.Events) != 16 {
		t.Fatalf("events = %d, want 16", len(rec.Events))
	}
	for _, ev := range rec.Events {
		if ev.Cycle == 1 {
			t.Fatalf("event in idle cycle: %+v", ev)
		}
		if ev.Cycle == 0 && ev.Dst != d.CrossNeighbor(ev.Src) {
			t.Fatalf("cycle-0 event not on a cross-edge: %+v", ev)
		}
		if ev.Cycle == 2 && ev.Dst != d.ClusterNeighbor(ev.Src, 0) {
			t.Fatalf("cycle-2 event not on a cluster edge: %+v", ev)
		}
	}
	// Events sorted by (cycle, src).
	for i := 1; i < len(rec.Events); i++ {
		a, b := rec.Events[i-1], rec.Events[i]
		if a.Cycle > b.Cycle || (a.Cycle == b.Cycle && a.Src >= b.Src) {
			t.Fatalf("events unsorted at %d: %+v %+v", i, a, b)
		}
	}
}

func TestRecordingLinkLoads(t *testing.T) {
	d := topology.MustDualCube(2)
	e := MustNew[int](d, Config{})
	_, rec, err := e.runRecorded(func(c *ctx[int]) {
		for k := 0; k < 3; k++ {
			c.Exchange(d.CrossNeighbor(c.ID()), k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	load, link := rec.MaxLinkLoad()
	if load != 3 {
		t.Errorf("max link load = %d (%v), want 3", load, link)
	}
	split := rec.SplitLoads(func(src, dst int) string {
		if dst == d.CrossNeighbor(src) {
			return "cross"
		}
		return "cluster"
	})
	if split["cross"] != 24 || split["cluster"] != 0 {
		t.Errorf("split = %v", split)
	}
}

func TestRenderSpaceTime(t *testing.T) {
	h := topology.MustHypercube(1)
	e := MustNew[int](h, Config{})
	_, rec, err := e.runRecorded(func(c *ctx[int]) {
		if c.ID() == 0 {
			c.Send(1, 7)
			c.Idle()
		} else {
			c.Idle()
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.RenderSpaceTime(&sb, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cycle 0: node 0 sends, node 1 is the receiving endpoint of the link.
	if !strings.Contains(out, "0  S  R") {
		t.Errorf("space-time diagram:\n%s", out)
	}
	if !strings.Contains(out, "1  .  .") {
		t.Errorf("idle cycle not shown:\n%s", out)
	}
	if err := rec.RenderSpaceTime(&sb, 100); err == nil {
		t.Error("oversized rendering should fail")
	}
}

func TestCtxCycleCounter(t *testing.T) {
	h := topology.MustHypercube(1)
	e := MustNew[int](h, Config{})
	var last int
	_, err := e.run(func(c *ctx[int]) {
		if c.Cycle() != 0 {
			t.Error("cycle should start at 0")
		}
		c.Idle()
		c.Exchange(1-c.ID(), 0)
		if c.ID() == 0 {
			last = c.Cycle()
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if last != 2 {
		t.Errorf("cycle counter = %d, want 2", last)
	}
}

func TestRecordingExchangeBothMarked(t *testing.T) {
	h := topology.MustHypercube(1)
	e := MustNew[int](h, Config{})
	_, rec, err := e.runRecorded(func(c *ctx[int]) {
		c.Exchange(1-c.ID(), c.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.RenderSpaceTime(&sb, 2); err != nil {
		t.Fatal(err)
	}
	// Both nodes send and receive: both cells must be B.
	if !strings.Contains(sb.String(), "B  B") {
		t.Errorf("exchange not marked B:\n%s", sb.String())
	}
}
