package dualcube

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// differentialWorkloads is every algorithm family exercised by the
// scheduler equivalence test: prefix, sorting, and all collectives, each
// returning its outputs and the run statistics for a given machine order.
var differentialWorkloads = []struct {
	name string
	run  func(n int) (any, Stats, error)
}{
	{"Prefix", func(n int) (any, Stats, error) {
		out, st, err := Prefix(n, diffInput(n))
		return out, st, err
	}},
	{"PrefixDiminished", func(n int) (any, Stats, error) {
		out, st, err := PrefixFunc(n, diffInput(n), func() int { return 0 }, func(a, b int) int { return a + b }, false)
		return out, st, err
	}},
	{"PrefixSegmented", func(n int) (any, Stats, error) {
		in := diffInput(n)
		heads := make([]bool, len(in))
		for i := range heads {
			heads[i] = i%5 == 0
		}
		out, st, err := PrefixSegmented(n, in, heads, func() int { return 0 }, func(a, b int) int { return a + b })
		return out, st, err
	}},
	{"Sort", func(n int) (any, Stats, error) {
		out, st, err := Sort(n, diffInput(n), Ascending)
		return out, st, err
	}},
	{"SortDescending", func(n int) (any, Stats, error) {
		out, st, err := Sort(n, diffInput(n), Descending)
		return out, st, err
	}},
	{"SortLarge", func(n int) (any, Stats, error) {
		out, st, err := SortLarge(n, 3, diffLargeInput(n, 3), Ascending)
		return out, st, err
	}},
	{"SortLargeDescending", func(n int) (any, Stats, error) {
		out, st, err := SortLarge(n, 3, diffLargeInput(n, 3), Descending)
		return out, st, err
	}},
	{"Broadcast", func(n int) (any, Stats, error) {
		out, st, err := Broadcast(n, 3, 42)
		return out, st, err
	}},
	{"AllReduce", func(n int) (any, Stats, error) {
		out, st, err := AllReduceSum(n, diffInput(n))
		return out, st, err
	}},
	{"Gather", func(n int) (any, Stats, error) {
		out, st, err := Gather(n, 1, diffInput(n))
		return out, st, err
	}},
	{"Scatter", func(n int) (any, Stats, error) {
		out, st, err := Scatter(n, 1, diffInput(n))
		return out, st, err
	}},
	{"AllGather", func(n int) (any, Stats, error) {
		out, st, err := AllGather(n, diffInput(n))
		return out, st, err
	}},
	{"AllToAll", func(n int) (any, Stats, error) {
		N := 1 << (2*n - 1)
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = i*N + j
			}
		}
		out, st, err := AllToAll(n, in)
		return out, st, err
	}},
	{"AllToAllV", func(n int) (any, Stats, error) {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(n)))
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
		out, st, err := AllToAllV(n, in)
		return out, st, err
	}},
	{"ReduceScatter", func(n int) (any, Stats, error) {
		N := 1 << (2*n - 1)
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = (i + 1) * (j + 1)
			}
		}
		out, st, err := ReduceScatter(n, in, func() int { return 0 }, func(a, b int) int { return a + b })
		return out, st, err
	}},
	{"Permute", func(n int) (any, Stats, error) {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(n)))
		out, st, err := Permute(n, rng.Perm(N), diffInput(n))
		return out, st, err
	}},
}

// topologyWorkloads are the operations implemented generically over
// topology.Comm — the subset of differentialWorkloads that accepts an
// explicit Runtime, so the differential harness can aim it at any family.
var topologyWorkloads = []struct {
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

// TestSchedulerDifferential runs every workload under all three execution
// backends — the worker-pool engine, the goroutine-per-node engine, and the
// direct kernel executor — and requires bit-identical outputs and identical
// cost statistics (Cycles, CommCycles, Messages, MaxOps, TotalOps): the
// backends must be observationally equivalent, not merely all correct.
//
// The generic workloads then sweep every topology family. Per family the
// same three-backend equivalence must hold, and every family must reproduce
// the dual-cube run bit-for-bit — outputs AND Stats — because hypercube and
// Z-cube schedules execute over the embedded D_n skeleton, so the dual-cube
// is their oracle.
func TestSchedulerDifferential(t *testing.T) {
	defer SetSimScheduler(SchedulerDefault)
	for _, w := range differentialWorkloads {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/D_%d", w.name, n), func(t *testing.T) {
				SetSimScheduler(SchedulerWorkerPool)
				poolOut, poolStats, poolErr := w.run(n)
				if poolErr != nil {
					t.Fatalf("pool err = %v", poolErr)
				}
				for _, alt := range []struct {
					name  string
					sched Scheduler
				}{
					{"goroutine-per-node", SchedulerGoroutinePerNode},
					{"direct", SchedulerDirect},
				} {
					SetSimScheduler(alt.sched)
					out, st, err := w.run(n)
					if err != nil {
						t.Fatalf("%s err = %v", alt.name, err)
					}
					if st != poolStats {
						t.Errorf("stats diverge:\n  worker-pool: %+v\n  %s: %+v", poolStats, alt.name, st)
					}
					if !reflect.DeepEqual(out, poolOut) {
						t.Errorf("outputs diverge between worker-pool and %s", alt.name)
					}
				}
			})
		}
	}

	for _, w := range topologyWorkloads {
		for n := 2; n <= 4; n++ {
			// The dualcube family runs first (Families() order) and becomes
			// the oracle the other families are pinned against.
			var oracleOut any
			var oracleStats Stats
			for _, fam := range Families() {
				t.Run(fmt.Sprintf("%s/%s/D_%d", w.name, fam, n), func(t *testing.T) {
					rt, err := NewRuntimeOn(fam, n)
					if err != nil {
						t.Fatal(err)
					}
					SetSimScheduler(SchedulerWorkerPool)
					poolOut, poolStats, poolErr := w.run(rt)
					if poolErr != nil {
						t.Fatalf("pool err = %v", poolErr)
					}
					for _, alt := range []struct {
						name  string
						sched Scheduler
					}{
						{"goroutine-per-node", SchedulerGoroutinePerNode},
						{"direct", SchedulerDirect},
					} {
						SetSimScheduler(alt.sched)
						out, st, err := w.run(rt)
						if err != nil {
							t.Fatalf("%s err = %v", alt.name, err)
						}
						if st != poolStats {
							t.Errorf("stats diverge:\n  worker-pool: %+v\n  %s: %+v", poolStats, alt.name, st)
						}
						if !reflect.DeepEqual(out, poolOut) {
							t.Errorf("outputs diverge between worker-pool and %s", alt.name)
						}
					}
					if fam == "dualcube" {
						oracleOut, oracleStats = poolOut, poolStats
						return
					}
					if oracleOut == nil {
						t.Fatal("dualcube oracle run missing")
					}
					if poolStats != oracleStats {
						t.Errorf("stats diverge from the dual-cube oracle:\n  dualcube: %+v\n  %s: %+v", oracleStats, fam, poolStats)
					}
					if !reflect.DeepEqual(poolOut, oracleOut) {
						t.Errorf("outputs diverge between dualcube and %s", fam)
					}
				})
			}
		}
	}
}

// TestSchedulerDifferentialWorkerCounts pins the worker count to several
// values and requires the same equivalence — shard boundaries must not be
// observable.
func TestSchedulerDifferentialWorkerCounts(t *testing.T) {
	defer SetSimWorkers(0)
	const n = 3
	ref, refStats, err := Prefix(n, diffInput(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7, 64} {
		SetSimWorkers(k)
		out, st, err := Prefix(n, diffInput(n))
		if err != nil {
			t.Fatalf("workers=%d: %v", k, err)
		}
		if st != refStats {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", k, st, refStats)
		}
		if !reflect.DeepEqual(out, ref) {
			t.Errorf("workers=%d: outputs diverge", k)
		}
	}
}
