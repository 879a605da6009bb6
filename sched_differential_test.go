package dualcube

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dualcube/internal/machine"
)

// differentialWorkloads is every algorithm family exercised by the
// scheduler equivalence test: prefix, sorting, and all collectives, each
// returning its outputs and the run statistics on a given Runtime.
var differentialWorkloads = []struct {
	name string
	run  func(rt *Runtime) (any, Stats, error)
}{
	{"Prefix", func(rt *Runtime) (any, Stats, error) {
		out, st, err := PrefixOn(rt, diffInput(rt.Order()))
		return out, st, err
	}},
	{"PrefixDiminished", func(rt *Runtime) (any, Stats, error) {
		out, st, err := PrefixFuncOn(rt, diffInput(rt.Order()), func() int { return 0 }, func(a, b int) int { return a + b }, false)
		return out, st, err
	}},
	{"PrefixSegmented", func(rt *Runtime) (any, Stats, error) {
		in := diffInput(rt.Order())
		heads := make([]bool, len(in))
		for i := range heads {
			heads[i] = i%5 == 0
		}
		out, st, err := PrefixSegmentedOn(rt, in, heads, func() int { return 0 }, func(a, b int) int { return a + b })
		return out, st, err
	}},
	{"Sort", func(rt *Runtime) (any, Stats, error) {
		out, st, err := SortOn(rt, diffInput(rt.Order()), Ascending)
		return out, st, err
	}},
	{"SortDescending", func(rt *Runtime) (any, Stats, error) {
		out, st, err := SortOn(rt, diffInput(rt.Order()), Descending)
		return out, st, err
	}},
	{"SortLarge", func(rt *Runtime) (any, Stats, error) {
		out, st, err := SortLargeOn(rt, 3, diffLargeInput(rt.Order(), 3), Ascending)
		return out, st, err
	}},
	{"SortLargeDescending", func(rt *Runtime) (any, Stats, error) {
		out, st, err := SortLargeOn(rt, 3, diffLargeInput(rt.Order(), 3), Descending)
		return out, st, err
	}},
	{"Broadcast", func(rt *Runtime) (any, Stats, error) {
		out, st, err := BroadcastOn(rt, 3, 42)
		return out, st, err
	}},
	{"AllReduce", func(rt *Runtime) (any, Stats, error) {
		out, st, err := AllReduceSumOn(rt, diffInput(rt.Order()))
		return out, st, err
	}},
	{"Gather", func(rt *Runtime) (any, Stats, error) {
		out, st, err := GatherOn(rt, 1, diffInput(rt.Order()))
		return out, st, err
	}},
	{"Scatter", func(rt *Runtime) (any, Stats, error) {
		out, st, err := ScatterOn(rt, 1, diffInput(rt.Order()))
		return out, st, err
	}},
	{"AllGather", func(rt *Runtime) (any, Stats, error) {
		out, st, err := AllGatherOn(rt, diffInput(rt.Order()))
		return out, st, err
	}},
	{"AllToAll", func(rt *Runtime) (any, Stats, error) {
		N := rt.Nodes()
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = i*N + j
			}
		}
		out, st, err := AllToAllOn(rt, in)
		return out, st, err
	}},
	{"AllToAllV", func(rt *Runtime) (any, Stats, error) {
		N := rt.Nodes()
		rng := rand.New(rand.NewSource(int64(rt.Order())))
		in := make([][][]int, N)
		for i := range in {
			in[i] = make([][]int, N)
			for j := range in[i] {
				in[i][j] = make([]int, rng.Intn(3))
				for k := range in[i][j] {
					in[i][j][k] = i*1000 + j*10 + k
				}
			}
		}
		out, st, err := AllToAllVOn(rt, in)
		return out, st, err
	}},
	{"ReduceScatter", func(rt *Runtime) (any, Stats, error) {
		N := rt.Nodes()
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = (i + 1) * (j + 1)
			}
		}
		out, st, err := ReduceScatterOn(rt, in, func() int { return 0 }, func(a, b int) int { return a + b })
		return out, st, err
	}},
	{"Permute", func(rt *Runtime) (any, Stats, error) {
		rng := rand.New(rand.NewSource(int64(rt.Order())))
		out, st, err := PermuteOn(rt, rng.Perm(rt.Nodes()), diffInput(rt.Order()))
		return out, st, err
	}},
	{"NTT", func(rt *Runtime) (any, Stats, error) {
		out, st, err := NTTOn(rt, diffCoeffs(rt.Order()), false)
		return out, st, err
	}},
	{"NTTInverse", func(rt *Runtime) (any, Stats, error) {
		out, st, err := NTTOn(rt, diffCoeffs(rt.Order()), true)
		return out, st, err
	}},
	{"PolyMulMod", func(rt *Runtime) (any, Stats, error) {
		c := diffCoeffs(rt.Order())
		out, st, err := PolyMulModOn(rt, c[:len(c)/2], c[len(c)/2:])
		return out, st, err
	}},
}

// diffCoeffs is diffInput as NTT coefficients.
func diffCoeffs(n int) []uint64 {
	in := diffInput(n)
	out := make([]uint64, len(in))
	for i, v := range in {
		out[i] = uint64(v)
	}
	return out
}

// diffLargeInput is k keys per node drawn from a small range, so every
// merge-split of the SortLarge rows meets duplicate keys.
func diffLargeInput(n, k int) []int {
	rng := rand.New(rand.NewSource(int64(n)*11 + int64(k)))
	in := make([]int, k<<(2*n-1))
	for i := range in {
		in[i] = rng.Intn(16)
	}
	return in
}

func diffInput(n int) []int {
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(int64(n) * 7))
	in := make([]int, N)
	for i := range in {
		in[i] = rng.Intn(1 << 16)
	}
	return in
}

// runtimeWith returns a Runtime on family's topology of order n that runs
// every operation under cfg. The package hands out zero-Config Runtimes
// only, so this is how a test pins a backend, a worker count or a fault
// spec — per Runtime, with no state shared between tests.
func runtimeWith(tb testing.TB, family string, n int, cfg machine.Config) *Runtime {
	tb.Helper()
	rt, err := NewRuntimeOn(family, n)
	if err != nil {
		tb.Fatal(err)
	}
	rt.cfg = cfg
	return rt
}

// backends are the two execution backends: the worker-pool engine (the
// reference) first, then the default, which runs compiled schedules on the
// direct executor.
var backends = []machine.Sched{machine.SchedWorkerPool, machine.SchedDefault}

// sameOnEveryBackend runs run on one Runtime per backend over family's D_n,
// requires bit-identical outputs and identical Stats from all of them, and
// returns the worker-pool run's.
func sameOnEveryBackend(t *testing.T, family string, n int, run func(*Runtime) (any, Stats, error)) (any, Stats) {
	t.Helper()
	var refOut any
	var refStats Stats
	for i, s := range backends {
		out, st, err := run(runtimeWith(t, family, n, machine.Config{Sched: s}))
		if err != nil {
			t.Fatalf("%v err = %v", s, err)
		}
		if i == 0 {
			refOut, refStats = out, st
			continue
		}
		if st != refStats {
			t.Errorf("stats diverge:\n  %v: %+v\n  %v: %+v", backends[0], refStats, s, st)
		}
		if !reflect.DeepEqual(out, refOut) {
			t.Errorf("outputs diverge between %v and %v", backends[0], s)
		}
	}
	return refOut, refStats
}

// TestSchedulerDifferential runs every workload under both execution
// backends — the worker-pool engine and the direct kernel executor — and
// requires bit-identical outputs and identical
// cost statistics (Cycles, CommCycles, Messages, MaxOps, TotalOps): the
// backends must be observationally equivalent, not merely all correct.
//
// Every workload then sweeps every topology family. Per family the same
// two-backend equivalence must hold, and every family must reproduce the
// dual-cube run bit-for-bit — outputs AND Stats — because hypercube and
// Z-cube schedules execute over the embedded D_n skeleton, so the dual-cube
// is their oracle. The degraded workloads detour over each family's own
// links, so only their outputs must match the dual-cube's.
func TestSchedulerDifferential(t *testing.T) {
	t.Parallel()
	for _, w := range differentialWorkloads {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/D_%d", w.name, n), func(t *testing.T) {
				t.Parallel()
				sameOnEveryBackend(t, "dualcube", n, w.run)
			})
			familiesMatchOracle(t, w.name, n, w.run, true)
		}
	}
	for _, w := range degradedWorkloads {
		for n := 2; n <= 4; n++ {
			familiesMatchOracle(t, w.name, n, w.run, false)
		}
	}
}

// familiesMatchOracle runs run at order n on every family, one subtest
// each: both backends must agree, and the outputs (and the Stats, when
// sameStats is set) must equal the dual-cube's.
func familiesMatchOracle(t *testing.T, name string, n int, run func(*Runtime) (any, Stats, error), sameStats bool) {
	for _, fam := range Families() {
		t.Run(fmt.Sprintf("%s/%s/D_%d", name, fam, n), func(t *testing.T) {
			t.Parallel()
			out, st := sameOnEveryBackend(t, fam, n, run)
			if fam == "dualcube" {
				return
			}
			oracleOut, oracleStats, err := run(runtimeWith(t, "dualcube", n, machine.Config{Sched: backends[0]}))
			if err != nil {
				t.Fatalf("dualcube oracle err = %v", err)
			}
			if sameStats && st != oracleStats {
				t.Errorf("stats diverge from the dual-cube oracle:\n  dualcube: %+v\n  %s: %+v", oracleStats, fam, st)
			}
			if !reflect.DeepEqual(out, oracleOut) {
				t.Errorf("outputs diverge between dualcube and %s", fam)
			}
		})
	}
}

// TestSchedulerDifferentialWorkerCounts pins the worker count to several
// values, on the direct executor and on the worker pool, and requires the
// default Runtime's outputs and Stats — shard boundaries must not be
// observable.
func TestSchedulerDifferentialWorkerCounts(t *testing.T) {
	t.Parallel()
	const n = 3
	ref, refStats, err := Prefix(n, diffInput(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7, 64} {
		for _, s := range []machine.Sched{machine.SchedDefault, machine.SchedWorkerPool} {
			out, st, err := PrefixOn(runtimeWith(t, "dualcube", n, machine.Config{Sched: s, Workers: k}), diffInput(n))
			if err != nil {
				t.Fatalf("%v workers=%d: %v", s, k, err)
			}
			if st != refStats {
				t.Errorf("%v workers=%d: stats diverge: %+v vs %+v", s, k, st, refStats)
			}
			if !reflect.DeepEqual(out, ref) {
				t.Errorf("%v workers=%d: outputs diverge", s, k)
			}
		}
	}
}
