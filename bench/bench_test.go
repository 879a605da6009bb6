package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dualcube/internal/topology"
)

// openTest builds workload w at the test sizes.
func openTest(t *testing.T, w *workload) system {
	t.Helper()
	sys, _, err := w.open(testSizes, 1)
	if err != nil {
		t.Fatalf("%s: open: %v", w.name, err)
	}
	t.Cleanup(sys.close)
	return sys
}

// TestWorkloads runs every workload in-process at the test sizes for about
// 100 ms and requires completed, correct calls in the phases the end-to-end
// metrics read.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sys := openTest(t, w)
			if err := sys.first(); err != nil {
				t.Fatalf("first call: %v", err)
			}
			r := measureRound(sys, 100*time.Millisecond, 20*time.Millisecond)
			if a, f := r.failures(); f != 0 || a == 0 {
				t.Fatalf("%d of %d calls failed: %v", f, a, summaryPhase(r).Errors)
			}
			if len(r.phase(w.latPhase).Lat) == 0 || r.phase(w.rpsPhase).Done == 0 {
				t.Fatalf("no completed calls in phases %q/%q", w.latPhase, w.rpsPhase)
			}
		})
	}
}

// TestMetricNames checks that a run emits exactly the metrics BENCHMARK.json
// names, each with its unit and a finite value: the end-to-end ones for
// every workload, and the per-layer ones from a traced run.
func TestMetricNames(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	check := func(t *testing.T, want []specMetric, got []metric, nonzero bool) {
		t.Helper()
		byName := make(map[string]metric)
		for _, m := range got {
			byName[m.Name] = m
		}
		for _, s := range want {
			m, ok := byName[s.Name]
			switch {
			case !ok:
				t.Errorf("%s not emitted", s.Name)
			case m.Unit != s.Unit:
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", s.Name, m.Unit, s.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s = %v", s.Name, m.Value)
			case nonzero && m.Value <= 0:
				t.Errorf("%s = %v, want > 0", s.Name, m.Value)
			}
			delete(byName, s.Name)
		}
		for name := range byName {
			t.Errorf("%s emitted but not in BENCHMARK.json", name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sys := openTest(t, w)
			r := measureRound(sys, 60*time.Millisecond, 10*time.Millisecond)
			probe := &childOut{SetupS: 0.01, FloorUS: floorUS()}
			rec := untracedRecord(w, []*childOut{probe}, []*childOut{{Round: r}}, []float64{12}, []float64{floorUS()})
			check(t, sp.EndToEnd, rec.Metrics, true)
		})
	}
	t.Run("traced", func(t *testing.T) {
		out, err := traced(workloads[0], testSizes, 1, 30*time.Millisecond, 400*time.Millisecond, 10*time.Millisecond, "")
		if err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 {
			t.Fatalf("%d of %d calls failed: %v", out.Failed, out.Attempted, out.Errors)
		}
		check(t, sp.PerLayer, out.Metrics, false)
	})
}

// corrupt wraps a caller and damages what each call returned before the
// check sees it.
type corrupt struct {
	caller
	damage func()
}

func (c corrupt) call(i int, tr *tracer, parent int64) error {
	err := c.caller.call(i, tr, parent)
	c.damage()
	return err
}

// TestWrongOutputFails seeds wrong outputs and wrong Stats into lib-scan
// calls and requires every one to count as failed and the run to report
// itself incorrect.
func TestWrongOutputFails(t *testing.T) {
	w, err := workloadByName("lib-scan")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(c *libScan)
	}{
		{"prefix", func(c *libScan) { c.p[len(c.p)-1]++ }},
		{"broadcast", func(c *libScan) { c.b[0]-- }},
		{"stats", func(c *libScan) { c.sp.Cycles++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := openTest(t, w).(*loop)
			c := l.callers[0].(*libScan)
			l.callers[0] = corrupt{caller: c, damage: func() { tc.damage(c) }}
			r := measureRound(l, 30*time.Millisecond, 0)
			a, f := r.failures()
			if a == 0 || f != a {
				t.Fatalf("%d of %d damaged calls counted as failed", f, a)
			}
			rec := &record{Attempted: a, Failed: f}
			if summarize([]*record{rec}, false).Correct {
				t.Fatal("a run with failed calls reports correct")
			}
		})
	}
}

// TestSelfTime checks self time against hand-computed intervals.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	for _, tc := range []struct {
		name string
		kids [][2]int64 // child [start, end) in ms
		want time.Duration
	}{
		{"disjoint", [][2]int64{{1, 4}, {5, 9}}, 3 * time.Millisecond},
		{"overlapping", [][2]int64{{1, 4}, {3, 6}}, 5 * time.Millisecond},
		{"past the parent", [][2]int64{{8, 12}}, 8 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spans := []span{{Trace: 1, ID: 1, Name: "parent", Start: 0, End: 10 * ms}}
			for i, k := range tc.kids {
				spans = append(spans, span{Trace: 1, ID: int64(i + 2), Parent: 1, Name: "child", Start: k[0] * ms, End: k[1] * ms})
			}
			if got := selfTimes(spans)[1]; got != tc.want {
				t.Fatalf("self time %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTracerSpans checks that spans nest under their root's trace and that
// a nil tracer records nothing.
func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("call", 0)
	child := tr.begin("op", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Trace != root || spans[0].End < spans[1].End {
		t.Fatalf("spans %+v", spans)
	}
	var off *tracer
	if id := off.begin("call", 0); id != 0 || off.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	off.end(0)
}

// TestStepClockParity runs every width-1 lane kernel plainly and under the
// step clock and requires identical outputs and Stats, so the traced run
// executes the same program; the clock must also have seen each step kind
// the schedule contains.
func TestStepClockParity(t *testing.T) {
	for _, n := range []int{3, 4} {
		d, err := topology.Shared(n)
		if err != nil {
			t.Fatal(err)
		}
		x := genServeInputs(rng(1, 9), n, 4, true)
		for _, op := range laneOps {
			for i := 0; i < 4; i++ {
				plain, err := runLanes(op, d, 1, x, i, false)
				if err != nil {
					t.Fatalf("%s D_%d plain: %v", op, n, err)
				}
				clocked, err := runLanes(op, d, 1, x, i, true)
				if err != nil {
					t.Fatalf("%s D_%d clocked: %v", op, n, err)
				}
				if !reflect.DeepEqual(plain.out, clocked.out) || plain.st != clocked.st {
					t.Fatalf("%s D_%d set %d: the step clock changed the result", op, n, i)
				}
				if clocked.kinds == plain.kinds {
					t.Fatalf("%s D_%d: the step clock timed nothing", op, n)
				}
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}
