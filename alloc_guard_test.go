package dualcube

import (
	"testing"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// TestNoPlanPrefixAllocGuard guards the engine's disarmed send path: with
// no fault plan armed, the engine allocates nothing per message or per
// cycle. Every oracle run builds its own engine, O(N) allocations of node
// contexts, coroutines and link rings, so the check is marginal: one
// trivial exchange kernel runs on one worker over two D_6 schedules, prefix
// (12 cycles, 24,576 messages) and sort (176 cycles, 247,808 messages), and
// their allocation counts may differ by at most 8. One allocation per send
// would set them about 223,000 apart.
func TestNoPlanPrefixAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n, slack = 6, 8
	d, err := topology.Shared(n)
	if err != nil {
		t.Fatal(err)
	}
	// One worker keeps the run on one goroutine, so no worker goroutine's
	// stack growth is counted against it.
	cfg := machine.Config{Sched: machine.SchedWorkerPool, Workers: 1}
	allocs := func(op dcomm.Op) float64 {
		sch, err := dcomm.Compiled(d, op)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's own warm-up run excludes lazily initialized state.
		return testing.AllocsPerRun(3, func() {
			if _, err := dcomm.Execute(sch, cfg, machine.DirectKernel[int](exchangeKernel{})); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(dcomm.OpPrefix), allocs(dcomm.OpDSort)
	if long-short > slack || short-long > slack {
		t.Fatalf("oracle runs on D_%d with no fault plan: %.0f allocs/op for prefix, %.0f for sort; more than %d apart, so the send path allocates", n, short, long, slack)
	}
	t.Logf("oracle runs on D_%d with no fault plan: %.0f allocs/op for prefix, %.0f for sort", n, short, long)
}

// exchangeKernel exchanges a zero on every communication step and computes
// nothing.
type exchangeKernel struct{}

func (exchangeKernel) Produce(*machine.DirectCtx, int, int) (machine.DirectRole, int) {
	return machine.DirectExchange, 0
}
func (exchangeKernel) Absorb(*machine.DirectCtx, int, int, int) {}
func (exchangeKernel) Local(*machine.DirectCtx, int, int)       {}

// TestDirectPrefixAllocGuard pins the steady-state allocation cost of the
// direct kernel executor: D_prefix on a warm D_6 Runtime, routed there by
// machine.SchedDefault, must stay within 16 allocs/op. The direct path
// allocates only the run's flat payload/role arrays, the kernel's state,
// and the result slice — no coroutines, no per-node contexts, no channels —
// so even one stray per-node or per-step allocation (2048 nodes x 12 steps)
// blows the budget by two orders of magnitude.
func TestDirectPrefixAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n = 6
	const budget = 16 // measured steady state is 8 allocs/op
	rt := runtimeWith(t, "dualcube", n, machine.Config{Sched: machine.SchedDefault})
	rt.Warm()
	in := make([]int, rt.Nodes())
	for i := range in {
		in[i] = i*2654435761 + 1
	}
	if _, _, err := PrefixOn(rt, in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := PrefixOn(rt, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("direct D_prefix on warm D_%d runtime: %.0f allocs/op, budget %d", n, allocs, budget)
	}
	t.Logf("direct D_prefix on warm D_%d runtime: %.0f allocs/op (budget %d)", n, allocs, budget)
}

// TestZCubeDirectPrefixAllocGuard is TestDirectPrefixAllocGuard on the
// Z-cube family: topology generality must be free in the steady state. The
// Z_6 schedule delegates to the embedded D_6 skeleton and comes out of the
// topology-keyed cache, so a warm direct prefix run must stay within the
// same 16 allocs/op budget as the dual-cube — any per-node or per-step
// regression in the generic routing (2048 nodes x 12 steps) fails loudly.
func TestZCubeDirectPrefixAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n = 6
	const budget = 16
	rt := runtimeWith(t, "zcube", n, machine.Config{Sched: machine.SchedDefault})
	rt.Warm()
	in := make([]int, rt.Nodes())
	for i := range in {
		in[i] = i*2654435761 + 1
	}
	if _, _, err := PrefixOn(rt, in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := PrefixOn(rt, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("direct D_prefix on warm Z_%d runtime: %.0f allocs/op, budget %d", n, allocs, budget)
	}
	t.Logf("direct D_prefix on warm Z_%d runtime: %.0f allocs/op (budget %d)", n, allocs, budget)
}

// TestZCubeDirectAllReduceAllocGuard pins the direct executor's all-reduce
// on a warm Z_6 Runtime to the same 16 allocs/op ceiling: the collective
// layer's generic (topology.Comm) route must add no steady-state allocation
// over the dual-cube path.
func TestZCubeDirectAllReduceAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n = 6
	const budget = 16
	rt := runtimeWith(t, "zcube", n, machine.Config{Sched: machine.SchedDefault})
	rt.Warm()
	in := make([]int, rt.Nodes())
	for i := range in {
		in[i] = i*2654435761 + 1
	}
	if _, _, err := AllReduceSumOn(rt, in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := AllReduceSumOn(rt, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("direct all-reduce on warm Z_%d runtime: %.0f allocs/op, budget %d", n, allocs, budget)
	}
	t.Logf("direct all-reduce on warm Z_%d runtime: %.0f allocs/op (budget %d)", n, allocs, budget)
}

// TestDirectSortAllocGuard is TestDirectPrefixAllocGuard for the sort
// family: D_sort on a warm D_6 Runtime through machine.SchedDefault. The warm
// direct path allocates the run's flat payload/role arrays, the kernel and
// its key array, the comparison closure, and the result slice; the oriented
// schedule and its sort-ID table come from the cache. One stray allocation
// per node or per step (2048 nodes x 66 steps) would blow the budget a
// hundredfold.
func TestDirectSortAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n = 6
	const budget = 16
	rt := runtimeWith(t, "dualcube", n, machine.Config{Sched: machine.SchedDefault})
	rt.Warm()
	in := make([]int, rt.Nodes())
	for i := range in {
		in[i] = i * 2654435761 % rt.Nodes()
	}
	if _, _, err := SortOn(rt, in, Ascending); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := SortOn(rt, in, Ascending); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("direct D_sort on warm D_%d runtime: %.0f allocs/op, budget %d", n, allocs, budget)
	}
	t.Logf("direct D_sort on warm D_%d runtime: %.0f allocs/op (budget %d)", n, allocs, budget)
}

// TestWarmRuntimeAllocGuard pins the steady-state allocation cost of Runtime
// operations once the schedule cache and the Runtime's arenas are warm. A
// warm run must take everything from the caches, so the budgets below —
// result slices plus fixed run bookkeeping — would be blown by even one
// stray per-node allocation (2048 nodes on D_6). This
// is the contract the Runtime layer exists for: steady-state operations
// construct no topology, no engine, and no schedule.
func TestWarmRuntimeAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n = 6
	// One worker keeps goroutine stack growth of a cold pool out of the
	// counts.
	one := machine.Config{Workers: 1}
	rt := runtimeWith(t, "dualcube", n, one)
	rt.Warm()
	// The same order on the Z-cube: its operations share the dual-cube's
	// schedule shapes, node tables, arena layout and plane stash, so the
	// bundle collectives and Permute must stay as flat there.
	zt := runtimeWith(t, "zcube", n, one)
	zt.Warm()
	in := make([]int, rt.Nodes())
	rev := make([]int, rt.Nodes())
	for i := range in {
		in[i] = i*2654435761 + 1
		rev[i] = rt.Nodes() - 1 - i
	}
	// Total-exchange inputs: an N x N matrix for the fixed form and a
	// skewed bundle matrix (lengths 0..2, including empties) for the
	// variable form. Built once outside the measured closures.
	N := rt.Nodes()
	a2aBacking := make([]int, N*N)
	a2a := make([][]int, N)
	a2av := make([][][]int, N)
	for i := range a2a {
		a2a[i] = a2aBacking[i*N : (i+1)*N]
		a2av[i] = make([][]int, N)
		for j := range a2av[i] {
			if l := (i + j) % 3; l > 0 {
				b := make([]int, l)
				for k := range b {
					b[k] = i*N + j + k
				}
				a2av[i][j] = b
			}
		}
	}
	for i := range a2aBacking {
		a2aBacking[i] = i * 31
	}
	// SortLarge at k = 64 keys per node, on the D_4 grid cell the
	// benchmark's lib-bulk workload runs.
	rt4 := runtimeWith(t, "dualcube", 4, one)
	bulk := make([]int, 64*rt4.Nodes())
	for i := range bulk {
		bulk[i] = (i * 2654435761) % 1000
	}

	cases := []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"PrefixOn", 24, func() error {
			_, _, err := PrefixOn(rt, in)
			return err
		}},
		{"AllReduceSumOn", 24, func() error {
			_, _, err := AllReduceSumOn(rt, in)
			return err
		}},
		// Broadcast moves one value, so its warm floor is flat like prefix
		// (measured 7 allocs/op). Since the payload-plane rewrite the
		// bundle collectives are flat too: values sit in a pooled arena and
		// only extents (or int32 ids) move, so a warm run allocates the
		// result storage plus fixed bookkeeping — measured 6 (gather),
		// 6 (scatter), 8 (all-gather) allocs/op on D_6, down from 4102,
		// 8176 and 26636 on the slice-of-bundles path. The ceilings leave
		// noise headroom only: one stray per-node allocation (2048 nodes)
		// blows any of them loudly.
		{"BroadcastOn", 16, func() error {
			_, _, err := BroadcastOn(rt, 3, 42)
			return err
		}},
		{"GatherOn", 16, func() error {
			_, _, err := GatherOn(rt, 1, in)
			return err
		}},
		{"ScatterOn", 16, func() error {
			_, _, err := ScatterOn(rt, 1, in)
			return err
		}},
		{"AllGatherOn", 16, func() error {
			_, _, err := AllGatherOn(rt, in)
			return err
		}},
		// The total exchanges route N² ids through the pooled route plane;
		// a warm run allocates the result slab (one backing plus row
		// headers, three slabs for the variable form) and fixed
		// bookkeeping. Permute routes one value per node through pooled
		// kernel state and stays flat like prefix (measured 11 allocs/op).
		{"AllToAllOn", 24, func() error {
			_, _, err := AllToAllOn(rt, a2a)
			return err
		}},
		{"AllToAllVOn", 24, func() error {
			_, _, err := AllToAllVOn(rt, a2av)
			return err
		}},
		{"PermuteOn", 16, func() error {
			_, _, err := PermuteOn(rt, rev, in)
			return err
		}},
		{"GatherOn(Z_6)", 16, func() error {
			_, _, err := GatherOn(zt, 1, in)
			return err
		}},
		{"ScatterOn(Z_6)", 16, func() error {
			_, _, err := ScatterOn(zt, 1, in)
			return err
		}},
		{"AllGatherOn(Z_6)", 16, func() error {
			_, _, err := AllGatherOn(zt, in)
			return err
		}},
		{"PermuteOn(Z_6)", 16, func() error {
			_, _, err := PermuteOn(zt, rev, in)
			return err
		}},
		// SortLarge runs the merge-split kernel over chunk arenas
		// double-buffered by step parity, so a warm run allocates the
		// arena, the result and fixed bookkeeping — measured 9 allocs/op
		// (D_4, k = 64), down from 3982 when it ran as a worker-pool node
		// program allocating every merge.
		{"SortLargeOn(D_4,k=64)", 16, func() error {
			_, _, err := SortLargeOn(rt4, 64, bulk, Ascending)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up once so this operation's schedules and arenas are cached.
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Fatalf("warm %s: %.0f allocs/op, budget %.0f — steady-state runs must not rebuild topology or engines", tc.name, allocs, tc.budget)
			}
			t.Logf("warm %s: %.0f allocs/op (budget %.0f)", tc.name, allocs, tc.budget)
		})
	}
}
