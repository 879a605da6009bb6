package dualcube

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDirectVsInterpret is the differential fuzzer for the direct kernel
// executor: random monoid inputs — and, when the seed selects one, a seeded
// fault plan — run through both the direct executor and the worker-pool
// interpreter, which must produce identical outputs and identical Stats.
// Three probes per input: sum prefix (fault-free or degraded under the
// plan), a non-commutative mixing combine (order mistakes that a sum
// conceals change the result), and the all-reduce collective.
//
// The fault-free probes then sweep every topology family: per family the
// direct executor must reproduce the interpreter, and the hypercube and
// Z-cube runs must reproduce the dual-cube run bit-for-bit — outputs and
// Stats — since their schedules execute over the embedded D_n skeleton.
func FuzzDirectVsInterpret(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(4), uint8(2))
	f.Add(int64(42), uint8(5), uint8(4))
	f.Add(int64(-7), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, order, faults uint8) {
		n := 2 + int(order)%4 // D_2 .. D_5
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(1<<20) - 1<<19
		}
		f := int(faults) % n // 0 .. n-1 permanent link faults
		var plan *FaultPlan
		if f > 0 {
			var err error
			plan, err = RandomFaultPlan(n, f, seed)
			if err != nil {
				t.Fatal(err)
			}
		}
		mix := func(a, b int) int { return a*1000003 + b }

		defer SetSimScheduler(SchedulerDefault)
		type probe struct {
			name string
			run  func() (any, Stats, error)
		}
		probes := []probe{
			{"prefix", func() (any, Stats, error) {
				if plan != nil {
					out, st, err := PrefixDegraded(n, in, plan)
					return out, st, err
				}
				out, st, err := Prefix(n, in)
				return out, st, err
			}},
			{"prefix-noncommutative", func() (any, Stats, error) {
				if plan != nil {
					out, st, err := PrefixDegradedFunc(n, in, func() int { return 0 }, mix, true, plan)
					return out, st, err
				}
				out, st, err := PrefixFunc(n, in, func() int { return 0 }, mix, true)
				return out, st, err
			}},
			{"allreduce", func() (any, Stats, error) {
				out, st, err := AllReduceSum(n, in)
				return out, st, err
			}},
		}
		for _, p := range probes {
			SetSimScheduler(SchedulerDirect)
			directOut, directStats, directErr := p.run()
			SetSimScheduler(SchedulerWorkerPool)
			poolOut, poolStats, poolErr := p.run()
			if (directErr == nil) != (poolErr == nil) {
				t.Fatalf("%s: error divergence: direct=%v pool=%v", p.name, directErr, poolErr)
			}
			if directErr != nil {
				continue // both rejected the input identically
			}
			if directStats != poolStats {
				t.Errorf("%s: stats diverge\n  direct: %+v\n  pool:   %+v", p.name, directStats, poolStats)
			}
			if !reflect.DeepEqual(directOut, poolOut) {
				t.Errorf("%s: outputs diverge between direct executor and interpreter", p.name)
			}
		}

		type result struct {
			out any
			st  Stats
		}
		oracle := make(map[string]result)
		for _, fam := range Families() {
			rt, err := NewRuntimeOn(fam, n)
			if err != nil {
				t.Fatal(err)
			}
			famProbes := []probe{
				{"prefix", func() (any, Stats, error) {
					out, st, err := PrefixOn(rt, in)
					return out, st, err
				}},
				{"prefix-noncommutative", func() (any, Stats, error) {
					out, st, err := PrefixFuncOn(rt, in, func() int { return 0 }, mix, true)
					return out, st, err
				}},
				{"allreduce", func() (any, Stats, error) {
					out, st, err := AllReduceSumOn(rt, in)
					return out, st, err
				}},
			}
			for _, p := range famProbes {
				SetSimScheduler(SchedulerDirect)
				directOut, directStats, directErr := p.run()
				if directErr != nil {
					t.Fatalf("%s/%s: direct: %v", fam, p.name, directErr)
				}
				SetSimScheduler(SchedulerWorkerPool)
				poolOut, poolStats, poolErr := p.run()
				if poolErr != nil {
					t.Fatalf("%s/%s: pool: %v", fam, p.name, poolErr)
				}
				if directStats != poolStats {
					t.Errorf("%s/%s: stats diverge\n  direct: %+v\n  pool:   %+v", fam, p.name, directStats, poolStats)
				}
				if !reflect.DeepEqual(directOut, poolOut) {
					t.Errorf("%s/%s: outputs diverge between direct executor and interpreter", fam, p.name)
				}
				if fam == "dualcube" {
					oracle[p.name] = result{directOut, directStats}
					continue
				}
				ref := oracle[p.name]
				if directStats != ref.st {
					t.Errorf("%s/%s: stats diverge from the dual-cube oracle\n  dualcube: %+v\n  %s: %+v", fam, p.name, ref.st, fam, directStats)
				}
				if !reflect.DeepEqual(directOut, ref.out) {
					t.Errorf("%s/%s: outputs diverge from the dual-cube oracle", fam, p.name)
				}
			}
		}
	})
}

// FuzzDirectVsInterpretVCollectives is the differential fuzzer for the
// arena-plane v-collectives: gather, scatter, all-gather and both total
// exchanges on D_2..D_5 with random roots and random payload shapes —
// including empty and heavily skewed all-to-all-v count vectors — run
// through the direct kernel executor, the worker-pool interpreter, and the
// goroutine-per-node engine. All three drive the same plane kernels, so
// outputs and Stats must be byte-identical across backends.
func FuzzDirectVsInterpretVCollectives(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(1))
	f.Add(int64(3), uint8(2), uint8(7), uint8(2))
	f.Add(int64(-9), uint8(3), uint8(255), uint8(3))
	f.Add(int64(1<<40), uint8(2), uint8(128), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, order, rootSeed, shape uint8) {
		n := 2 + int(order)%4 // D_2 .. D_5
		N := 1 << (2*n - 1)
		root := int(rootSeed) % N
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(1<<20) - 1<<19
		}
		a2a := make([][]int, N)
		for i := range a2a {
			a2a[i] = make([]int, N)
			for j := range a2a[i] {
				a2a[i][j] = rng.Intn(1 << 16)
			}
		}
		// Bundle shapes for the variable exchange: uniform small, mostly
		// empty, one hot source row, or one hot destination column — the
		// skew stresses the CSR fill and the per-node drain, and empty
		// bundles must round-trip as nil.
		a2av := make([][][]int, N)
		for i := range a2av {
			a2av[i] = make([][]int, N)
			for j := range a2av[i] {
				var l int
				switch shape % 4 {
				case 0:
					l = rng.Intn(3)
				case 1:
					if rng.Intn(8) == 0 {
						l = rng.Intn(4)
					}
				case 2:
					if i == root {
						l = rng.Intn(5)
					}
				case 3:
					if j == root {
						l = rng.Intn(5)
					}
				}
				if l > 0 {
					b := make([]int, l)
					for k := range b {
						b[k] = rng.Intn(1 << 16)
					}
					a2av[i][j] = b
				}
			}
		}

		type probe struct {
			name string
			run  func() (any, Stats, error)
		}
		probes := []probe{
			{"gather", func() (any, Stats, error) {
				out, st, err := Gather(n, root, in)
				return out, st, err
			}},
			{"scatter", func() (any, Stats, error) {
				out, st, err := Scatter(n, root, in)
				return out, st, err
			}},
			{"allgather", func() (any, Stats, error) {
				out, st, err := AllGather(n, in)
				return out, st, err
			}},
			{"alltoall", func() (any, Stats, error) {
				out, st, err := AllToAll(n, a2a)
				return out, st, err
			}},
			{"alltoallv", func() (any, Stats, error) {
				out, st, err := AllToAllV(n, a2av)
				return out, st, err
			}},
		}
		defer SetSimScheduler(SchedulerDefault)
		for _, p := range probes {
			SetSimScheduler(SchedulerDirect)
			directOut, directStats, err := p.run()
			if err != nil {
				t.Fatalf("%s: direct: %v", p.name, err)
			}
			for _, alt := range []struct {
				name  string
				sched Scheduler
			}{
				{"worker-pool", SchedulerWorkerPool},
				{"goroutine-per-node", SchedulerGoroutinePerNode},
			} {
				SetSimScheduler(alt.sched)
				out, st, err := p.run()
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, alt.name, err)
				}
				if st != directStats {
					t.Errorf("%s/%s: stats diverge\n  direct: %+v\n  engine: %+v", p.name, alt.name, directStats, st)
				}
				if !reflect.DeepEqual(out, directOut) {
					t.Errorf("%s/%s: outputs diverge from the direct executor", p.name, alt.name)
				}
			}
		}
	})
}

// FuzzDirectVsInterpretSort is the sort family's differential fuzzer: random
// keys with heavy duplicates (a small value range forces equal-key ties,
// where the keep-local-on-tie rule must agree across backends), both sort
// Orders, on D_2..D_4 — run through the direct kernel executor, the
// worker-pool interpreter, and the legacy goroutine-per-node engine. All
// three must produce identical outputs and identical Stats. A chunk size
// k > 1 runs SortLargeFunc's merge-split kernel instead, on tagged records
// whose keys tie constantly, so the tags expose any backend that places
// equal keys differently.
func FuzzDirectVsInterpretSort(f *testing.F) {
	f.Add(int64(1), uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(1), true, uint8(0))
	f.Add(int64(3), uint8(2), false, uint8(0))
	f.Add(int64(-42), uint8(1), true, uint8(0))
	f.Add(int64(7), uint8(0), true, uint8(0))
	f.Add(int64(4), uint8(1), false, uint8(2))
	f.Add(int64(5), uint8(2), true, uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, order uint8, descending bool, chunk uint8) {
		n := 2 + int(order)%3 // D_2 .. D_4
		k := 1 + int(chunk)%8 // keys per node
		N := 1 << (2*n - 1)
		ord := Ascending
		if descending {
			ord = Descending
		}
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(N/2 + 1) // duplicates guaranteed by pigeonhole
		}
		tagged := make([]tieKey, k*N)
		for i := range tagged {
			tagged[i] = tieKey{Key: uint8(rng.Intn(4)), Tag: uint16(i)}
		}
		run := func() (any, Stats, error) {
			if k == 1 {
				return Sort(n, in, ord)
			}
			return SortLargeFunc(n, k, tagged, tieLess, ord)
		}

		defer SetSimScheduler(SchedulerDefault)
		SetSimScheduler(SchedulerDirect)
		directOut, directStats, err := run()
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		for _, alt := range []struct {
			name  string
			sched Scheduler
		}{
			{"worker-pool", SchedulerWorkerPool},
			{"goroutine-per-node", SchedulerGoroutinePerNode},
		} {
			SetSimScheduler(alt.sched)
			out, st, err := run()
			if err != nil {
				t.Fatalf("%s: %v", alt.name, err)
			}
			if st != directStats {
				t.Errorf("%s: stats diverge\n  direct: %+v\n  engine: %+v", alt.name, directStats, st)
			}
			if !reflect.DeepEqual(out, directOut) {
				t.Errorf("%s: outputs diverge from the direct executor (k=%d)\n  direct: %v\n  engine: %v", alt.name, k, directOut, out)
			}
		}
	})
}
