package machine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dualcube/internal/topology"
)

// schedConfigs enumerates the engine configurations every semantic test
// runs under: the worker pool in its single-worker fast path, and the pool
// with forced multi-worker sharding (exercising the atomic link cursors and
// the sense barrier even on one CPU).
var schedConfigs = []struct {
	name string
	cfg  Config
}{
	{"pool", Config{Sched: SchedWorkerPool, Workers: 1}},
	{"pool-w4", Config{Sched: SchedWorkerPool, Workers: 4}},
}

func forEachSched(t *testing.T, base Config, f func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, sc := range schedConfigs {
		cfg := sc.cfg
		cfg.LinkCapacity = base.LinkCapacity
		cfg.Timeout = base.Timeout
		t.Run(sc.name, func(t *testing.T) { f(t, cfg) })
	}
}

func TestExchangeOnK2(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		d := topology.MustDualCube(1) // K_2
		e := MustNew[int](d, cfg)
		got := make([]int, 2)
		st, err := e.run(func(c *ctx[int]) {
			got[c.ID()] = c.Exchange(1-c.ID(), c.ID()*10)
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 10 || got[1] != 0 {
			t.Errorf("exchange results = %v", got)
		}
		if st.Cycles != 1 || st.CommCycles != 1 || st.Messages != 2 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestHypercubeAllDimExchange(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		// Every node XORs together the IDs it sees along all dimensions; the
		// result is deterministic and checkable.
		q := 4
		h := topology.MustHypercube(q)
		e := MustNew[int](h, cfg)
		acc := make([]int, h.Nodes())
		st, err := e.run(func(c *ctx[int]) {
			sum := 0
			for i := 0; i < q; i++ {
				p := c.ID() ^ 1<<i
				sum += c.Exchange(p, c.ID())
				c.Ops(1)
			}
			acc[c.ID()] = sum
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < h.Nodes(); u++ {
			want := 0
			for i := 0; i < q; i++ {
				want += u ^ 1<<i
			}
			if acc[u] != want {
				t.Errorf("node %d: got %d want %d", u, acc[u], want)
			}
		}
		if st.Cycles != q || st.CommCycles != q {
			t.Errorf("cycles = %d/%d, want %d", st.Cycles, st.CommCycles, q)
		}
		if st.MaxOps != q || st.TotalOps != int64(q*h.Nodes()) {
			t.Errorf("ops = %d/%d", st.MaxOps, st.TotalOps)
		}
		if st.Messages != int64(q*h.Nodes()) {
			t.Errorf("messages = %d", st.Messages)
		}
	})
}

func TestSendRecvHalfDuplex(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := MustNew[string](h, cfg)
		var got string
		_, err := e.run(func(c *ctx[string]) {
			if c.ID() == 0 {
				c.Send(1, "ping")
			} else {
				got = c.Recv(0)
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != "ping" {
			t.Errorf("got %q", got)
		}
	})
}

func TestDeferredReceiveFIFO(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		// A message sent in cycle 1 may be received in cycle 3; messages on one
		// link arrive in order.
		h := topology.MustHypercube(1)
		e := MustNew[int](h, cfg)
		var first, second int
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(1, 11)
				c.Send(1, 22)
				c.Idle()
			} else {
				c.Idle()
				first = c.Recv(0)
				second = c.Recv(0)
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first != 11 || second != 22 {
			t.Errorf("FIFO violated: got %d then %d", first, second)
		}
	})
}

func TestSendRecv2(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		// On D_2, node 0 has neighbors 1 (cluster) and 4 (cross). It receives
		// from both in one cycle while sending to one of them.
		d := topology.MustDualCube(2)
		e := MustNew[int](d, cfg)
		var a, b int
		_, err := e.run(func(c *ctx[int]) {
			switch c.ID() {
			case 0:
				a, b = c.SendRecv2(1, 100, 1, 4)
			case 1:
				c.Exchange(0, 111)
			case 4:
				c.Send(0, 444)
			default:
				c.Idle()
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != 111 || b != 444 {
			t.Errorf("SendRecv2 = %d,%d", a, b)
		}
	})
}

func TestIdleCyclesNotCommCycles(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := MustNew[int](h, cfg)
		st, err := e.run(func(c *ctx[int]) {
			c.Idle()
			c.Exchange(c.ID()^1, 0)
			c.Idle()
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles != 3 || st.CommCycles != 1 {
			t.Errorf("cycles=%d comm=%d, want 3/1", st.Cycles, st.CommCycles)
		}
	})
}

func TestSendToNonNeighborFails(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(3)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(7, 1) // 0 and 7 differ in 3 bits: not a link
			} else {
				c.Idle()
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "not a neighbor") {
			t.Errorf("want non-neighbor error, got %v", err)
		}
	})
}

func TestRecvEmptyLinkFails(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Recv(1) // nothing was sent
			} else {
				c.Idle()
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "empty link") {
			t.Errorf("want empty-link error, got %v", err)
		}
	})
}

func TestDuplicateRecvFails(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.SendRecv2(1, 0, 1, 1)
			} else {
				c.Exchange(0, 1)
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "duplicate receive") {
			t.Errorf("want duplicate-receive error, got %v", err)
		}
	})
}

func TestUnconsumedMessageDetected(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(1, 9)
			} else {
				c.Idle()
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "unconsumed") {
			t.Errorf("want unconsumed-message error, got %v", err)
		}
	})
}

func TestLinkOverflowDetected(t *testing.T) {
	forEachSched(t, Config{LinkCapacity: 2}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			for i := 0; i < 3; i++ {
				if c.ID() == 0 {
					c.Send(1, i)
				} else {
					c.Idle()
				}
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("want overflow error, got %v", err)
		}
	})
}

func TestNodePanicPropagates(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 2 {
				panic("boom")
			}
			c.Exchange(c.ID()^1, 0)
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("want node panic error, got %v", err)
		}
	})
}

// desyncProgram has node 0 step one cycle more than everyone else.
func desyncProgram(c *ctx[int]) {
	if c.ID() == 0 {
		c.Idle()
		c.Idle() // the other nodes never join this cycle
	} else {
		c.Idle()
	}
}

// TestWatchdogCatchesDesync runs a program whose nodes all idle forever.
// The barrier leader sees perfect lockstep every cycle, so only the watchdog
// (Config.Timeout) can end the run; afterwards the engine must serve the
// next run cleanly.
func TestWatchdogCatchesDesync(t *testing.T) {
	forEachSched(t, Config{Timeout: 50 * time.Millisecond}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			for {
				c.Idle()
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("want watchdog error, got %v", err)
		}
		st, err := e.run(func(c *ctx[int]) { c.Exchange(c.ID()^1, c.ID()) }, nil)
		if err != nil || st.Cycles != 1 {
			t.Fatalf("engine not reusable after the watchdog: err = %v, stats = %+v", err, st)
		}
	})
}

// TestPoolDetectsDesyncDeterministically asserts the worker pool improves
// on the watchdog: its barrier leader sees the broken lockstep immediately,
// with no timeout involved, for both single- and multi-worker pools.
func TestPoolDetectsDesyncDeterministically(t *testing.T) {
	for _, workers := range []int{1, 2} {
		h := topology.MustHypercube(1)
		e := MustNew[int](h, Config{Sched: SchedWorkerPool, Workers: workers, Timeout: time.Hour})
		start := time.Now()
		_, err := e.run(desyncProgram, nil)
		if err == nil || !strings.Contains(err.Error(), "desynchronized") {
			t.Errorf("W=%d: want desync error, got %v", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("W=%d: desync detection took %v, should not involve a timeout", workers, elapsed)
		}
	}
}

func TestEngineReusableAfterFailure(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(1, 9) // left unconsumed -> failure
			} else {
				c.Idle()
			}
		}, nil)
		if err == nil {
			t.Fatal("expected failure on first run")
		}
		var got int
		_, err = e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(1, 42)
			} else {
				got = c.Recv(0)
			}
		}, nil)
		if err != nil {
			t.Fatalf("engine not reusable: %v", err)
		}
		if got != 42 {
			t.Errorf("stale message leaked across runs: got %d", got)
		}
	})
}

// TestEngineReusableAfterProtocolAbort exercises reuse after a mid-run
// protocol failure that unwinds every node (not just an end-of-run hygiene
// error): links must be drained and the next run must start from a clean
// clock and fresh barrier state.
func TestEngineReusableAfterProtocolAbort(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := MustNew[int](h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			c.Exchange(c.ID()^1, c.ID())
			if c.ID() == 3 {
				c.Recv(0) // non-neighbor: aborts the run in cycle 2
			} else {
				c.Idle()
			}
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "not a neighbor") {
			t.Fatalf("want non-neighbor error, got %v", err)
		}
		out := make([]int, h.Nodes())
		st, err := e.run(func(c *ctx[int]) {
			out[c.ID()] = c.Exchange(c.ID()^1, c.ID())
		}, nil)
		if err != nil {
			t.Fatalf("engine not reusable after abort: %v", err)
		}
		if st.Cycles != 1 || st.Messages != int64(h.Nodes()) {
			t.Errorf("stats not reset after abort: %+v", st)
		}
		for u := range out {
			if out[u] != u^1 {
				t.Errorf("node %d: got %d want %d", u, out[u], u^1)
			}
		}
	})
}

func TestEngineReusableStatsReset(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := MustNew[int](h, cfg)
		prog := func(c *ctx[int]) {
			c.Exchange(c.ID()^1, c.ID())
			c.Ops(1)
		}
		st1, err := e.run(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := e.run(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st1 != st2 {
			t.Errorf("stats not reset across runs: %+v vs %+v", st1, st2)
		}
	})
}

func TestDeterminism(t *testing.T) {
	forEachSched(t, Config{}, func(t *testing.T, cfg Config) {
		// Two identical runs over D_3 must produce identical values and stats.
		d := topology.MustDualCube(3)
		e := MustNew[int](d, cfg)
		run := func() ([]int, Stats) {
			out := make([]int, d.Nodes())
			st, err := e.run(func(c *ctx[int]) {
				v := c.ID()
				for i := 0; i < d.ClusterDim(); i++ {
					v += c.Exchange(d.ClusterNeighbor(c.ID(), i), v)
					c.Ops(1)
				}
				v += c.Exchange(d.CrossNeighbor(c.ID()), v)
				c.Ops(1)
				out[c.ID()] = v
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out, st
		}
		out1, st1 := run()
		out2, st2 := run()
		if st1 != st2 {
			t.Errorf("stats differ: %+v vs %+v", st1, st2)
		}
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("values differ at node %d", i)
			}
		}
	})
}

// asymTopology is deliberately broken: edge 0->1 has no reverse edge.
type asymTopology struct{}

func (asymTopology) Name() string { return "broken" }
func (asymTopology) Nodes() int   { return 3 }
func (asymTopology) Degree(u int) int {
	if u == 0 {
		return 1
	}
	return 0
}
func (asymTopology) Neighbors(u int) []int {
	if u == 0 {
		return []int{1}
	}
	return nil
}
func (asymTopology) HasEdge(u, v int) bool { return u == 0 && v == 1 }

// TestNewRejectsAsymmetricTopology is the regression test for the old
// behavior of panicking inside New: an asymmetric adjacency must surface as
// an error to the caller.
func TestNewRejectsAsymmetricTopology(t *testing.T) {
	e, err := New[int](asymTopology{}, Config{})
	if err == nil || !strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("want asymmetric-topology error, got engine=%v err=%v", e, err)
	}
	if e != nil {
		t.Error("New returned a non-nil engine alongside an error")
	}
}

func TestMustNewPanicsOnAsymmetry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on an asymmetric topology")
		}
	}()
	MustNew[int](asymTopology{}, Config{})
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Nodes: 8, Cycles: 4, CommCycles: 3, Messages: 10, MaxOps: 2, TotalOps: 9}
	b := Stats{Nodes: 8, Cycles: 6, CommCycles: 5, Messages: 21, MaxOps: 4, TotalOps: 30}
	got := a.Add(b)
	want := Stats{Nodes: 8, Cycles: 10, CommCycles: 8, Messages: 31, MaxOps: 6, TotalOps: 39}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	// Identity on either side.
	if a.Add(Stats{}) != a || (Stats{}).Add(a) != a {
		t.Error("zero Stats is not the identity for Add")
	}
}

// TestStatsAddRejectsMixedMachines is the regression test for the old
// samplesort addStats, which bitwise-ORed the two node counts: combining
// phases from different machine sizes must fail loudly, not corrupt Nodes.
func TestStatsAddRejectsMixedMachines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add of 8-node and 32-node stats did not panic")
		}
	}()
	// With the old a.Nodes|b.Nodes these would silently combine to 40.
	_ = Stats{Nodes: 8}.Add(Stats{Nodes: 32})
}

// TestSenseBarrierRounds drives the worker pool's W-party barrier directly
// through many rounds and checks the leader action runs exactly once per
// round.
func TestSenseBarrierRounds(t *testing.T) {
	const parties, rounds = 5, 200
	count := 0
	b := newSenseBarrier(parties, func() { count++ })
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sense uint32
			for r := 0; r < rounds; r++ {
				b.wait(&sense)
			}
		}()
	}
	wg.Wait()
	if count != rounds {
		t.Errorf("leader action ran %d times, want %d", count, rounds)
	}
}

func TestLargeMachineSmoke(t *testing.T) {
	// 2048-node dual-cube: a full cross-edge exchange round.
	d := topology.MustDualCube(6)
	e := MustNew[int](d, Config{})
	st, err := e.run(func(c *ctx[int]) {
		c.Exchange(d.CrossNeighbor(c.ID()), c.ID())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 1 || st.Messages != int64(d.Nodes()) {
		t.Errorf("stats = %+v", st)
	}
}

// TestTimeoutScalesWithNodes checks the watchdog default grows with the
// machine instead of staying pinned at the old fixed 60 seconds.
func TestTimeoutScalesWithNodes(t *testing.T) {
	small := Config{}.withDefaults(2)
	big := Config{}.withDefaults(1 << 13)
	if small.Timeout < 60*time.Second {
		t.Errorf("small-machine timeout %v below the 60s base", small.Timeout)
	}
	if big.Timeout <= small.Timeout {
		t.Errorf("timeout does not scale: %v for 2 nodes vs %v for 8192", small.Timeout, big.Timeout)
	}
	explicit := Config{Timeout: 5 * time.Second}.withDefaults(1 << 13)
	if explicit.Timeout != 5*time.Second {
		t.Errorf("explicit timeout overridden: %v", explicit.Timeout)
	}
}
