package machine

import (
	"fmt"
	"strings"
	"testing"

	"dualcube/internal/topology"
)

// fnKernel adapts function fields to the DirectKernel interface so each test
// can state its per-step behavior inline.
type fnKernel struct {
	produce func(dc *DirectCtx, k, u int) (DirectRole, int)
	absorb  func(dc *DirectCtx, k, u, v int)
	local   func(dc *DirectCtx, k, u int)
}

func (f fnKernel) Produce(dc *DirectCtx, k, u int) (DirectRole, int) { return f.produce(dc, k, u) }
func (f fnKernel) Absorb(dc *DirectCtx, k, u, v int) {
	if f.absorb != nil {
		f.absorb(dc, k, u, v)
	}
}
func (f fnKernel) Local(dc *DirectCtx, k, u int) {
	if f.local != nil {
		f.local(dc, k, u)
	}
}

// directTestSchedule hand-builds and finalizes a minimal cluster-technique
// schedule on D_n: one cluster sweep, the cross hop, and a local combine.
func directTestSchedule(t *testing.T, n int) *Schedule {
	t.Helper()
	d := topology.MustDualCube(n)
	m := d.ClusterDim()
	var steps []Step
	for i := 0; i < m; i++ {
		steps = append(steps, Step{Kind: StepClusterDim, Dim: i, Pattern: i})
	}
	steps = append(steps, Step{Kind: StepCrossHop, Dim: -1, Pattern: m})
	steps = append(steps, Step{Kind: StepLocalCombine, Dim: -1, Pattern: -1})
	sch := &Schedule{Name: "direct-test", D: d, Steps: steps}
	sch.Finalize()
	return sch
}

// sumKernel builds an all-exchange folding kernel over vals plus the state
// arrays backing it, fresh per run so the two backends cannot share state.
func sumKernel(n int) (fnKernel, []int) {
	vals := make([]int, n)
	return fnKernel{
		produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
			if k == 0 {
				vals[u] = u + 1
			}
			return DirectExchange, vals[u]
		},
		absorb: func(dc *DirectCtx, k, u, v int) {
			vals[u] += v
			dc.Ops(1)
		},
		local: func(dc *DirectCtx, k, u int) {
			vals[u] *= 3
			dc.Ops(1)
		},
	}, vals
}

// TestRunDirectMatchesEngine drives the same kernel through RunDirect and
// through a simulator engine via the kernelProgram adapter and requires
// identical outputs and identical Stats.
func TestRunDirectMatchesEngine(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		sch := directTestSchedule(t, n)
		N := sch.D.Nodes()

		kd, directVals := sumKernel(N)
		directStats, err := RunDirect(sch, Config{}, DirectKernel[int](kd))
		if err != nil {
			t.Fatalf("D_%d direct: %v", n, err)
		}

		ke, engineVals := sumKernel(N)
		eng := MustNew[int](sch.D, Config{})
		engineStats, err := eng.Run(sch, DirectKernel[int](ke))
		eng.Release()
		if err != nil {
			t.Fatalf("D_%d engine: %v", n, err)
		}

		if directStats != engineStats {
			t.Errorf("D_%d stats diverge:\n  direct: %+v\n  engine: %+v", n, directStats, engineStats)
		}
		for u := range directVals {
			if directVals[u] != engineVals[u] {
				t.Fatalf("D_%d node %d: direct %d, engine %d", n, u, directVals[u], engineVals[u])
			}
		}
		if comm := sch.CommSteps(); directStats.Cycles != comm {
			t.Errorf("D_%d: %d cycles, want %d", n, directStats.Cycles, comm)
		}
	}
}

// TestRunDirectParallelMatchesSerial forces the sharded pass path (the node
// count is pushed over directParallelMin) and requires the same outputs and
// Stats as the serial pass under several worker counts.
func TestRunDirectParallelMatchesSerial(t *testing.T) {
	defer func(min int) { directParallelMin = min }(directParallelMin)

	const n = 4
	sch := directTestSchedule(t, n)
	N := sch.D.Nodes()

	directParallelMin = 1 << 30 // force serial
	ks, serialVals := sumKernel(N)
	serialStats, err := RunDirect(sch, Config{}, DirectKernel[int](ks))
	if err != nil {
		t.Fatal(err)
	}

	directParallelMin = 1 // force the sharded path
	for _, w := range []int{1, 2, 3, 7, 64} {
		kp, parallelVals := sumKernel(N)
		parallelStats, err := RunDirect(sch, Config{Workers: w}, DirectKernel[int](kp))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if parallelStats != serialStats {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", w, parallelStats, serialStats)
		}
		for u := range serialVals {
			if parallelVals[u] != serialVals[u] {
				t.Fatalf("workers=%d node %d: parallel %d, serial %d", w, u, parallelVals[u], serialVals[u])
			}
		}
	}
}

// TestRunDirectContainsKernelPanics panics inside kernel calls — an absorb
// on two nodes in different shards, or a produce — and requires RunDirect to
// return the engine's "node u panicked" error for the lowest panicking node,
// on the serial pass and on sharded passes alike, instead of letting the
// panic escape (serial) or kill the process (a shard worker).
func TestRunDirectContainsKernelPanics(t *testing.T) {
	defer func(min int) { directParallelMin = min }(directParallelMin)
	sch := directTestSchedule(t, 4)
	N := sch.D.Nodes()
	for _, tc := range []struct {
		name string
		kern fnKernel
		want string
	}{
		{"absorb", fnKernel{
			produce: func(dc *DirectCtx, k, u int) (DirectRole, int) { return DirectExchange, u },
			absorb: func(dc *DirectCtx, k, u, v int) {
				if k == 1 && (u == 37 || u == 90) {
					panic(fmt.Sprintf("boom at %d", u))
				}
			},
		}, "machine: node 37 panicked: boom at 37"},
		{"produce", fnKernel{
			produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
				if k == 2 && u >= 100 {
					panic("produce exploded")
				}
				return DirectExchange, u
			},
		}, "machine: node 100 panicked: produce exploded"},
	} {
		for _, w := range []int{1, 2, 3, 7} {
			directParallelMin = 1 << 30 // serial
			if w > 1 {
				directParallelMin = 1 // sharded over w workers
			}
			_, err := RunDirect(sch, Config{Workers: w}, DirectKernel[int](tc.kern))
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, workers=%d: err = %v, want %q", tc.name, w, err, tc.want)
			}
		}
	}
	// The executor holds no state across runs: the next run succeeds.
	k, vals := sumKernel(N)
	if _, err := RunDirect(sch, Config{Workers: 3}, DirectKernel[int](k)); err != nil || vals[0] == 0 {
		t.Fatalf("run after a contained panic: err = %v, vals[0] = %d", err, vals[0])
	}
}

// TestRunDirectRequiresFinalizedSchedule: a schedule without partner tables
// runs on neither executor.
func TestRunDirectRequiresFinalizedSchedule(t *testing.T) {
	d := topology.MustDualCube(2)
	sch := &Schedule{Name: "unfinalized", D: d, Steps: []Step{{Kind: StepCrossHop, Dim: -1, Pattern: 1}}}
	k, _ := sumKernel(d.Nodes())
	_, err := RunDirect(sch, Config{}, DirectKernel[int](k))
	if err == nil || !strings.Contains(err.Error(), "finalized schedule") {
		t.Fatalf("direct: err = %v, want finalized-schedule rejection", err)
	}
	eng := MustNew[int](d, Config{})
	defer eng.Release()
	if _, err := eng.Run(sch, DirectKernel[int](k)); err == nil || !strings.Contains(err.Error(), "finalized schedule") {
		t.Fatalf("engine: err = %v, want finalized-schedule rejection", err)
	}
}

// TestRecDimRequiresExchange: a one-sided role on a recursive-dimension
// step is the same error on both executors, since the 3-cycle choreography
// has no one-sided variant.
func TestRecDimRequiresExchange(t *testing.T) {
	d := topology.MustDualCube(2)
	sch := &Schedule{Name: "recdim", D: d, Steps: []Step{{Kind: StepRecDim, Dim: 1, Pattern: 2}}}
	sch.Finalize()
	k := fnKernel{produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
		if u == 3 {
			return DirectSend, u
		}
		return DirectExchange, u
	}}
	const want = "machine: node 3: recursive-dimension step 0 requires a matched exchange, got role 2"
	if _, err := RunDirect(sch, Config{}, DirectKernel[int](k)); err == nil || err.Error() != want {
		t.Errorf("direct: err = %v, want %q", err, want)
	}
	eng := MustNew[int](d, Config{})
	defer eng.Release()
	if _, err := eng.Run(sch, DirectKernel[int](k)); err == nil || err.Error() != want {
		t.Errorf("engine: err = %v, want %q", err, want)
	}
}

// TestRunDirectFaultPlanValidation: a valid spec that lists one link twice,
// in both orientations, compiles to two directed down links on the direct
// executor exactly as on the engine.
func TestRunDirectFaultPlanValidation(t *testing.T) {
	sch := directTestSchedule(t, 2)
	d := sch.D
	cross := d.CrossNeighbor(1)
	spec := &FaultSpec{Links: [][2]int{{1, cross}, {cross, 1}}}
	k := fnKernel{produce: func(dc *DirectCtx, k, u int) (DirectRole, int) { return DirectIdle, 0 }}
	st, err := RunDirect(sch, Config{Faults: spec}, DirectKernel[int](k))
	if err != nil || st.Faults.DownLinks != 2 {
		t.Fatalf("direct: err = %v, Faults = %+v, want 2 directed down links", err, st.Faults)
	}
	eng := MustNew[int](d, Config{Faults: spec})
	defer eng.Release()
	est, err := eng.Run(sch, DirectKernel[int](k))
	if err != nil || est != st {
		t.Fatalf("engine: err = %v, stats %+v, want the direct run's %+v", err, est, st)
	}
}

// TestRunDirectSendOnFailedLink: a sender whose link the armed plan severed
// (with no fault rewrite masking the pair) fails like the engine does.
func TestRunDirectSendOnFailedLink(t *testing.T) {
	sch := directTestSchedule(t, 2)
	k, _ := sumKernel(sch.D.Nodes())
	cross := sch.D.CrossNeighbor(0)
	spec := &FaultSpec{Links: [][2]int{{0, cross}}}
	_, err := RunDirect(sch, Config{Faults: spec}, DirectKernel[int](k))
	if err == nil || !strings.Contains(err.Error(), "on a failed link") {
		t.Fatalf("err = %v, want failed-link rejection", err)
	}
}

// TestRunDirectProtocolErrors: mismatched roles within a matched pair are
// the engine's empty-link and unconsumed-message protocol errors.
func TestRunDirectProtocolErrors(t *testing.T) {
	sch := directTestSchedule(t, 2)

	// Node 0 receives but its partner idles: empty link.
	recvOnly := fnKernel{
		produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
			if u == 0 {
				return DirectRecv, 0
			}
			return DirectIdle, 0
		},
	}
	_, err := RunDirect(sch, Config{}, DirectKernel[int](recvOnly))
	if err == nil || !strings.Contains(err.Error(), "on an empty link") {
		t.Fatalf("recv-only: err = %v, want empty-link error", err)
	}

	// Node 1 sends but its partner never receives: unconsumed message.
	sendOnly := fnKernel{
		produce: func(dc *DirectCtx, k, u int) (DirectRole, int) {
			if u == 1 {
				return DirectSend, u
			}
			return DirectIdle, 0
		},
	}
	_, err = RunDirect(sch, Config{}, DirectKernel[int](sendOnly))
	if err == nil || !strings.Contains(err.Error(), "unconsumed message") {
		t.Fatalf("send-only: err = %v, want unconsumed-message error", err)
	}
}
