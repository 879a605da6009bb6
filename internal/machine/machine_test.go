package machine

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dualcube/internal/topology"
)

// forEachSched runs a semantic test on the engine, as the subtest "pool"
// that the test IDs name.
func forEachSched(t *testing.T, f func(t *testing.T, cfg Config)) {
	t.Helper()
	t.Run("pool", func(t *testing.T) { f(t, Config{Sched: SchedWorkerPool}) })
}

// mustEngine builds the engine of one run over topo. The engine's
// unexported fields (ringCap, timeout) are the knobs the tests turn.
func mustEngine[T any](tb testing.TB, topo topology.Topology, cfg Config) *engine[T] {
	tb.Helper()
	e, err := newEngine[T](topo, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func TestExchangeOnK2(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		d := topology.MustDualCube(1) // K_2
		e := mustEngine[int](t, d, cfg)
		got := make([]int, 2)
		st, err := e.run(func(c *ctx[int]) {
			got[c.ID()] = c.Exchange(1-c.ID(), c.ID()*10)
		})
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
	forEachSched(t, func(t *testing.T, cfg Config) {
		// Every node XORs together the IDs it sees along all dimensions; the
		// result is deterministic and checkable.
		q := 4
		h := topology.MustHypercube(q)
		e := mustEngine[int](t, h, cfg)
		acc := make([]int, h.Nodes())
		st, err := e.run(func(c *ctx[int]) {
			sum := 0
			for i := 0; i < q; i++ {
				p := c.ID() ^ 1<<i
				sum += c.Exchange(p, c.ID())
				c.Ops(1)
			}
			acc[c.ID()] = sum
		})
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
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := mustEngine[string](t, h, cfg)
		var got string
		_, err := e.run(func(c *ctx[string]) {
			if c.ID() == 0 {
				c.Send(1, "ping")
			} else {
				got = c.Recv(0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != "ping" {
			t.Errorf("got %q", got)
		}
	})
}

func TestDeferredReceiveFIFO(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		// A message sent in cycle 1 may be received in cycle 3; messages on one
		// link arrive in order.
		h := topology.MustHypercube(1)
		e := mustEngine[int](t, h, cfg)
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
		})
		if err != nil {
			t.Fatal(err)
		}
		if first != 11 || second != 22 {
			t.Errorf("FIFO violated: got %d then %d", first, second)
		}
	})
}

func TestSendRecv2(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		// On D_2, node 0 has neighbors 1 (cluster) and 4 (cross). It receives
		// from both in one cycle while sending to one of them.
		d := topology.MustDualCube(2)
		e := mustEngine[int](t, d, cfg)
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
		})
		if err != nil {
			t.Fatal(err)
		}
		if a != 111 || b != 444 {
			t.Errorf("SendRecv2 = %d,%d", a, b)
		}
	})
}

func TestIdleCyclesNotCommCycles(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := mustEngine[int](t, h, cfg)
		st, err := e.run(func(c *ctx[int]) {
			c.Idle()
			c.Exchange(c.ID()^1, 0)
			c.Idle()
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles != 3 || st.CommCycles != 1 {
			t.Errorf("cycles=%d comm=%d, want 3/1", st.Cycles, st.CommCycles)
		}
	})
}

func TestSendToNonNeighborFails(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(3)
		e := mustEngine[int](t, h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(7, 1) // 0 and 7 differ in 3 bits: not a link
			} else {
				c.Idle()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "not a neighbor") {
			t.Errorf("want non-neighbor error, got %v", err)
		}
	})
}

func TestRecvEmptyLinkFails(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := mustEngine[int](t, h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Recv(1) // nothing was sent
			} else {
				c.Idle()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "empty link") {
			t.Errorf("want empty-link error, got %v", err)
		}
	})
}

func TestDuplicateRecvFails(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := mustEngine[int](t, h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.SendRecv2(1, 0, 1, 1)
			} else {
				c.Exchange(0, 1)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "duplicate receive") {
			t.Errorf("want duplicate-receive error, got %v", err)
		}
	})
}

func TestUnconsumedMessageDetected(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := mustEngine[int](t, h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 0 {
				c.Send(1, 9)
			} else {
				c.Idle()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "unconsumed") {
			t.Errorf("want unconsumed-message error, got %v", err)
		}
	})
}

func TestLinkOverflowDetected(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(1)
		e := mustEngine[int](t, h, cfg)
		e.ringCap = 2
		_, err := e.run(func(c *ctx[int]) {
			for i := 0; i < 3; i++ {
				if c.ID() == 0 {
					c.Send(1, i)
				} else {
					c.Idle()
				}
			}
		})
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("want overflow error, got %v", err)
		}
	})
}

func TestNodePanicPropagates(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := mustEngine[int](t, h, cfg)
		_, err := e.run(func(c *ctx[int]) {
			if c.ID() == 2 {
				panic("boom")
			}
			c.Exchange(c.ID()^1, 0)
		})
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
// The per-cycle accounting sees perfect lockstep, so only the watchdog
// can end the run; afterwards a fresh engine must run cleanly.
func TestWatchdogCatchesDesync(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		h := topology.MustHypercube(2)
		e := mustEngine[int](t, h, cfg)
		e.timeout = 50 * time.Millisecond
		_, err := e.run(func(c *ctx[int]) {
			for {
				c.Idle()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("want watchdog error, got %v", err)
		}
		st, err := mustEngine[int](t, h, cfg).run(func(c *ctx[int]) { c.Exchange(c.ID()^1, c.ID()) })
		if err != nil || st.Cycles != 1 {
			t.Fatalf("run after the watchdog: err = %v, stats = %+v", err, st)
		}
	})
}

// TestPoolDetectsDesyncDeterministically asserts the engine improves on
// the watchdog: its per-cycle accounting sees the broken lockstep
// immediately, with no timeout involved.
func TestPoolDetectsDesyncDeterministically(t *testing.T) {
	e := mustEngine[int](t, topology.MustHypercube(1), Config{Sched: SchedWorkerPool})
	e.timeout = time.Hour
	start := time.Now()
	_, err := e.run(desyncProgram)
	if err == nil || !strings.Contains(err.Error(), "desynchronized") {
		t.Errorf("want desync error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("desync detection took %v, should not involve a timeout", elapsed)
	}
}

func TestDeterminism(t *testing.T) {
	forEachSched(t, func(t *testing.T, cfg Config) {
		// Two identical runs over D_3, each on its own engine, must produce
		// identical values and stats.
		d := topology.MustDualCube(3)
		run := func() ([]int, Stats) {
			out := make([]int, d.Nodes())
			st, err := mustEngine[int](t, d, cfg).run(func(c *ctx[int]) {
				v := c.ID()
				for i := 0; i < d.ClusterDim(); i++ {
					v += c.Exchange(d.ClusterNeighbor(c.ID(), i), v)
					c.Ops(1)
				}
				v += c.Exchange(d.CrossNeighbor(c.ID()), v)
				c.Ops(1)
				out[c.ID()] = v
			})
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
// behavior of panicking inside engine construction: an asymmetric adjacency
// must surface as an error to the caller.
func TestNewRejectsAsymmetricTopology(t *testing.T) {
	e, err := newEngine[int](asymTopology{}, Config{})
	if err == nil || !strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("want asymmetric-topology error, got engine=%v err=%v", e, err)
	}
	if e != nil {
		t.Error("newEngine returned a non-nil engine alongside an error")
	}
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

func TestLargeMachineSmoke(t *testing.T) {
	// 2048-node dual-cube: a full cross-edge exchange round.
	d := topology.MustDualCube(6)
	e := mustEngine[int](t, d, Config{})
	st, err := e.run(func(c *ctx[int]) {
		c.Exchange(d.CrossNeighbor(c.ID()), c.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 1 || st.Messages != int64(d.Nodes()) {
		t.Errorf("stats = %+v", st)
	}
}

// TestTimeoutScalesWithNodes checks the watchdog grows with the machine
// instead of staying pinned at the old fixed 60 seconds, and that every
// engine arms it.
func TestTimeoutScalesWithNodes(t *testing.T) {
	small, big := scaledTimeout(2), scaledTimeout(1<<13)
	if small < 60*time.Second {
		t.Errorf("small-machine timeout %v below the 60s base", small)
	}
	if big <= small {
		t.Errorf("timeout does not scale: %v for 2 nodes vs %v for 8192", small, big)
	}
	h := topology.MustHypercube(4)
	if e := mustEngine[int](t, h, Config{}); e.timeout != scaledTimeout(h.Nodes()) {
		t.Errorf("engine watchdog %v, want %v", e.timeout, scaledTimeout(h.Nodes()))
	}
}

// TestEngineRunsLeaveNoGoroutines runs oracle schedules that end four ways
// — normally, with a protocol error, with a kernel panic and by the
// watchdog — and then requires the goroutine count to return to its
// starting value: an engine serves one run, and every node coroutine has
// returned by the time the run does.
func TestEngineRunsLeaveNoGoroutines(t *testing.T) {
	sch := directTestSchedule(t, 3)
	start := runtime.NumGoroutine()
	sum, _ := sumKernel(sch.D.Nodes())
	if _, err := RunEngine(sch, Config{}, DirectKernel[int](sum)); err != nil {
		t.Fatalf("normal run: %v", err)
	}
	recvOnly := fnKernel{produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
		if u == 0 {
			return DirectRecv, 0
		}
		return DirectIdle, 0
	}}
	if _, err := RunEngine(sch, Config{}, DirectKernel[int](recvOnly)); err == nil || !strings.Contains(err.Error(), "empty link") {
		t.Fatalf("protocol error: err = %v, want an empty-link error", err)
	}
	panicky := fnKernel{produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
		if k == 1 && u == 5 {
			panic("boom")
		}
		return DirectExchange, u
	}}
	if _, err := RunEngine(sch, Config{}, DirectKernel[int](panicky)); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("kernel panic: err = %v, want the panic", err)
	}
	// The first node stalls in its first Produce until the run has failed,
	// so only the watchdog can end it.
	e := mustEngine[int](t, sch.D, Config{})
	e.timeout = time.Millisecond
	stall := fnKernel{produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
		for !e.failed.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		return DirectExchange, u
	}}
	if _, err := e.run(kernelProgram(sch, DirectKernel[int](stall))); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("watchdog: err = %v, want the watchdog error", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before: node coroutines outlived their run", runtime.NumGoroutine(), start)
		}
	}
}
