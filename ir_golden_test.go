package dualcube

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dualcube/internal/machine"
)

// goldenStats is the serializable projection of Stats pinned by the golden
// file (Faults is omitted: the fault-free workloads report a zero value and
// the degraded workloads pin their fault counters separately).
type goldenStats struct {
	Nodes      int   `json:"nodes"`
	Cycles     int   `json:"cycles"`
	CommCycles int   `json:"comm_cycles"`
	Messages   int64 `json:"messages"`
	MaxOps     int   `json:"max_ops"`
	TotalOps   int64 `json:"total_ops"`
}

func toGolden(st Stats) goldenStats {
	return goldenStats{
		Nodes:      st.Nodes,
		Cycles:     st.Cycles,
		CommCycles: st.CommCycles,
		Messages:   st.Messages,
		MaxOps:     st.MaxOps,
		TotalOps:   st.TotalOps,
	}
}

// degradedWorkloads extends the differential table with degraded-mode prefix
// runs under seeded fault plans, pinning the fault-tolerant schedule (detour
// order and repair cycle counts) alongside the fault-free operations.
var degradedWorkloads = []struct {
	name string
	run  func(rt *Runtime) (any, Stats, error)
}{
	{"PrefixDegraded/f=1", func(rt *Runtime) (any, Stats, error) {
		return runDegraded(rt, 1, 2008)
	}},
	{"PrefixDegraded/f=max", func(rt *Runtime) (any, Stats, error) {
		return runDegraded(rt, rt.Order()-1, 42)
	}},
}

func runDegraded(rt *Runtime, f int, seed int64) (any, Stats, error) {
	n := rt.Order()
	plan, err := RandomFaultPlan(n, f, seed)
	if err != nil {
		return nil, Stats{}, err
	}
	out, st, err := PrefixDegradedOn(rt, diffInput(n), plan)
	return out, st, err
}

// TestIRGoldenStats pins the cost statistics of every operation against the
// golden file captured from the inline (pre-IR) implementations, under BOTH
// schedule-capable backends: the worker-pool interpreter (the reference
// semantics) and the direct kernel executor. The compiled schedules must be
// byte-identical to those implementations — same cycles, same messages,
// same computation rounds, for every operation at every order — and the
// direct executor must reproduce the interpreter exactly, against the same
// unchanged golden entries. Regenerate with IR_GOLDEN_UPDATE=1 only when a
// schedule change is intentional and explained.
func TestIRGoldenStats(t *testing.T) {
	path := filepath.Join("testdata", "ir_golden_stats.json")
	type entry struct {
		Workload string      `json:"workload"`
		N        int         `json:"n"`
		Stats    goldenStats `json:"stats"`
	}

	collect := func(t *testing.T, sched machine.Sched) []entry {
		var got []entry
		add := func(name string, run func(*Runtime) (any, Stats, error)) {
			for n := 2; n <= 4; n++ {
				_, st, err := run(runtimeWith(t, "dualcube", n, machine.Config{Sched: sched}))
				if err != nil {
					t.Fatalf("%s/D_%d: %v", name, n, err)
				}
				got = append(got, entry{Workload: name, N: n, Stats: toGolden(st)})
			}
		}
		for _, w := range differentialWorkloads {
			add(w.name, w.run)
		}
		for _, w := range degradedWorkloads {
			add(w.name, w.run)
		}
		return got
	}

	if os.Getenv("IR_GOLDEN_UPDATE") == "1" {
		got := collect(t, machine.SchedWorkerPool)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with IR_GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want []entry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]goldenStats, len(want))
	for _, e := range want {
		wantByKey[fmt.Sprintf("%s/D_%d", e.Workload, e.N)] = e.Stats
	}

	t.Parallel()
	for _, backend := range []struct {
		name  string
		sched machine.Sched
	}{
		{"interpreter", machine.SchedWorkerPool},
		{"direct", machine.SchedDefault},
	} {
		t.Run(backend.name, func(t *testing.T) {
			t.Parallel()
			got := collect(t, backend.sched)
			for _, e := range got {
				key := fmt.Sprintf("%s/D_%d", e.Workload, e.N)
				ref, ok := wantByKey[key]
				if !ok {
					t.Errorf("%s: no golden entry", key)
					continue
				}
				if e.Stats != ref {
					t.Errorf("%s: stats diverge from the inline implementation\n  got:    %+v\n  golden: %+v", key, e.Stats, ref)
				}
			}
			if len(got) != len(want) {
				t.Errorf("workload count changed: %d runs vs %d golden entries", len(got), len(want))
			}
		})
	}
}
