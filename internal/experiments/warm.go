package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/topology"
)

// ColdProbe measures one genuinely cold D_prefix call on D_n. The honest
// cold measurement needs a fresh process: within a process the Go runtime
// recycles coroutine stacks and heap spans, so even after dropping every
// pooled engine a "cold" call is substantially cheaper than a first call.
// cmd/dcbench provides a probe that re-executes itself; tests that cannot
// spawn processes pass nil and get the in-process approximation.
type ColdProbe func(n int) (time.Duration, error)

// ColdCallOnce runs the single timed cold call a ColdProbe subprocess
// performs: the first D_prefix on D_n of this process, engine construction
// and schedule compilation included.
func ColdCallOnce(n int) (time.Duration, error) {
	N := 1 << (2*n - 1)
	in := randInts(int64(n), N, -1000, 1000)
	start := time.Now()
	_, _, err := prefix.DPrefix(machine.Config{}, n, in, monoid.Sum[int](), true, nil)
	return time.Since(start), err
}

// WarmProbe measures the steady-state per-call time of D_prefix on D_n over
// runs calls. Like ColdProbe it exists so the sweep can delegate the
// measurement to a fresh subprocess: a process that has already swept smaller
// orders carries their heap spans and subprocess bookkeeping into the
// collector's pacing, which inflates the warm samples by several percent.
// With both probes subprocess-backed, cold and warm run in identical pristine
// processes and differ only in what the Runtime caches.
type WarmProbe func(n, runs int) (time.Duration, error)

// WarmSteadyState runs the measurement a WarmProbe subprocess performs: one
// priming D_prefix call on D_n (constructs the engine, compiles the
// schedule), a garbage collection to settle, then the median of runs timed
// calls on the warm pool.
func WarmSteadyState(n, runs int) (time.Duration, error) {
	N := 1 << (2*n - 1)
	in := randInts(int64(n), N, -1000, 1000)
	m := monoid.Sum[int]()
	if _, _, err := prefix.DPrefix(machine.Config{}, n, in, m, true, nil); err != nil {
		return 0, err
	}
	runtime.GC()
	warms := make([]time.Duration, 0, runs)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if _, _, err := prefix.DPrefix(machine.Config{}, n, in, m, true, nil); err != nil {
			return 0, err
		}
		warms = append(warms, time.Since(start))
	}
	return median(warms), nil
}

// ColdWarmPoint is one row of the E20 sweep: median per-call wall time of
// D_prefix on D_n cold (first call of a fresh process, or the in-process
// pool-reset approximation when no probe is available) versus warm (pooled
// engine, compiled schedule — the steady state of a long-lived Runtime).
type ColdWarmPoint struct {
	N       int     `json:"n"`
	Nodes   int     `json:"nodes"`
	Runs    int     `json:"runs"`
	ColdNs  int64   `json:"cold_ns_per_call"`
	WarmNs  int64   `json:"warm_ns_per_call"`
	Speedup float64 `json:"speedup"`
	Exact   bool    `json:"fresh_process_cold"`
}

// ColdWarmSweep measures the cold-vs-warm per-call wall time of D_prefix for
// n in [minN, maxN], runs samples per configuration, reporting medians
// (robust against GC pauses and scheduling noise on a shared host). When the
// probes are non-nil each configuration is measured in fresh subprocesses;
// with nil probes the sweep falls back to the in-process approximation
// (pool reset for cold, in-process steady state for warm).
func ColdWarmSweep(minN, maxN, runs int, cold ColdProbe, warm WarmProbe) ([]ColdWarmPoint, error) {
	if runs < 1 {
		return nil, fmt.Errorf("experiments: E20 needs at least 1 run, got %d", runs)
	}
	m := monoid.Sum[int]()
	var pts []ColdWarmPoint
	for n := minN; n <= maxN; n++ {
		N := 1 << (2*n - 1)
		in := randInts(int64(n), N, -1000, 1000)
		call := func() error {
			_, _, err := prefix.DPrefix(machine.Config{}, n, in, m, true, nil)
			return err
		}

		var warmNs int64
		if warm != nil {
			d, err := warm(n, runs)
			if err != nil {
				return nil, fmt.Errorf("E20 warm n=%d: %w", n, err)
			}
			warmNs = d.Nanoseconds()
		} else {
			machine.ResetEnginePool()
			if err := call(); err != nil {
				return nil, fmt.Errorf("E20 warm-up n=%d: %w", n, err)
			}
			runtime.GC()
			warms := make([]time.Duration, 0, runs)
			for r := 0; r < runs; r++ {
				start := time.Now()
				if err := call(); err != nil {
					return nil, fmt.Errorf("E20 warm n=%d: %w", n, err)
				}
				warms = append(warms, time.Since(start))
			}
			warmNs = median(warms).Nanoseconds()
		}

		colds := make([]time.Duration, 0, runs)
		for r := 0; r < runs; r++ {
			if cold != nil {
				d, err := cold(n)
				if err != nil {
					return nil, fmt.Errorf("E20 cold n=%d: %w", n, err)
				}
				colds = append(colds, d)
				continue
			}
			machine.ResetEnginePool()
			start := time.Now()
			if err := call(); err != nil {
				return nil, fmt.Errorf("E20 cold n=%d: %w", n, err)
			}
			colds = append(colds, time.Since(start))
		}

		coldNs := median(colds).Nanoseconds()
		sp := 0.0
		if warmNs > 0 {
			sp = float64(coldNs) / float64(warmNs)
		}
		pts = append(pts, ColdWarmPoint{
			N: n, Nodes: N, Runs: runs,
			ColdNs: coldNs, WarmNs: warmNs, Speedup: sp, Exact: cold != nil,
		})
	}
	return pts, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// E20ColdVsWarm renders the cold-vs-warm sweep as the markdown table
// recorded in EXPERIMENTS.md. The last column verifies the Runtime-layer
// claim that a warm call pays no topology, engine, or schedule construction;
// on D_6 the warm path is expected to be at least 2x faster per call.
func E20ColdVsWarm(minN, maxN, runs int, cold ColdProbe, warm WarmProbe) (string, error) {
	t := newTable("E20 — Runtime warm-up: cold vs warm per-call wall time (D_prefix, medians)",
		"n", "nodes", "runs", "cold ns/call", "warm ns/call", "speedup", "cold source", "schedule")
	pts, err := ColdWarmSweep(minN, maxN, runs, cold, warm)
	if err != nil {
		return "", err
	}
	for _, p := range pts {
		d, err := topology.Shared(p.N)
		if err != nil {
			return "", err
		}
		src := "pool reset (in-process)"
		if p.Exact {
			src = "fresh process"
		}
		sch, err := dcomm.Compiled(d, dcomm.OpPrefix)
		if err != nil {
			return "", err
		}
		t.row(itoa(p.N), itoa(p.Nodes), itoa(p.Runs), i64toa(p.ColdNs), i64toa(p.WarmNs),
			fmt.Sprintf("%.1fx", p.Speedup), src, fmt.Sprintf("%s (%d steps)", sch.Name, len(sch.Steps)))
	}
	return t.String(), nil
}
