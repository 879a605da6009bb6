package dualcube

import (
	"math/rand"
	"reflect"
	"testing"

	"dualcube/internal/machine"
)

// FuzzDirectVsInterpret is the differential fuzzer for the direct kernel
// executor: random monoid inputs run through a direct-executor Runtime and a
// worker-pool Runtime, which must produce identical outputs and identical
// Stats. When the seed selects a fault plan, the sum prefix and a
// non-commutative mixing prefix (order mistakes that a sum conceals change
// the result) first run degraded under it on the dual-cube.
//
// The fault-free probes — the two prefixes and the all-reduce collective —
// then sweep every topology family: per family the direct executor must
// reproduce the interpreter, and the hypercube and Z-cube runs must
// reproduce the dual-cube run bit-for-bit — outputs and Stats — since their
// schedules execute over the embedded D_n skeleton.
func FuzzDirectVsInterpret(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(4), uint8(2))
	f.Add(int64(42), uint8(5), uint8(4))
	f.Add(int64(-7), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, order, faults uint8) {
		t.Parallel()
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

		type probe struct {
			name string
			run  func(rt *Runtime) (any, Stats, error)
		}
		same := func(label string, p probe, direct, pool *Runtime) (any, Stats, bool) {
			directOut, directStats, directErr := p.run(direct)
			poolOut, poolStats, poolErr := p.run(pool)
			if (directErr == nil) != (poolErr == nil) {
				t.Fatalf("%s: error divergence: direct=%v pool=%v", label, directErr, poolErr)
			}
			if directErr != nil {
				return nil, Stats{}, false // both rejected the input identically
			}
			if directStats != poolStats {
				t.Errorf("%s: stats diverge\n  direct: %+v\n  pool:   %+v", label, directStats, poolStats)
			}
			if !reflect.DeepEqual(directOut, poolOut) {
				t.Errorf("%s: outputs diverge between direct executor and interpreter", label)
			}
			return directOut, directStats, true
		}
		runtimes := func(fam string) (direct, pool *Runtime) {
			return runtimeWith(t, fam, n, machine.Config{Sched: machine.SchedDefault}),
				runtimeWith(t, fam, n, machine.Config{Sched: machine.SchedWorkerPool})
		}

		if plan != nil {
			direct, pool := runtimes("dualcube")
			for _, p := range []probe{
				{"prefix", func(rt *Runtime) (any, Stats, error) {
					out, st, err := PrefixDegradedOn(rt, in, plan)
					return out, st, err
				}},
				{"prefix-noncommutative", func(rt *Runtime) (any, Stats, error) {
					out, st, err := PrefixDegradedFuncOn(rt, in, func() int { return 0 }, mix, true, plan)
					return out, st, err
				}},
			} {
				same("degraded/"+p.name, p, direct, pool)
			}
		}

		type result struct {
			out any
			st  Stats
		}
		oracle := make(map[string]result)
		for _, fam := range Families() {
			direct, pool := runtimes(fam)
			for _, p := range []probe{
				{"prefix", func(rt *Runtime) (any, Stats, error) {
					out, st, err := PrefixOn(rt, in)
					return out, st, err
				}},
				{"prefix-noncommutative", func(rt *Runtime) (any, Stats, error) {
					out, st, err := PrefixFuncOn(rt, in, func() int { return 0 }, mix, true)
					return out, st, err
				}},
				{"allreduce", func(rt *Runtime) (any, Stats, error) {
					out, st, err := AllReduceSumOn(rt, in)
					return out, st, err
				}},
			} {
				out, st, ok := same(fam+"/"+p.name, p, direct, pool)
				if !ok {
					t.Fatalf("%s/%s: rejected a fault-free input", fam, p.name)
				}
				if fam == "dualcube" {
					oracle[p.name] = result{out, st}
					continue
				}
				ref := oracle[p.name]
				if st != ref.st {
					t.Errorf("%s/%s: stats diverge from the dual-cube oracle\n  dualcube: %+v\n  %s: %+v", fam, p.name, ref.st, fam, st)
				}
				if !reflect.DeepEqual(out, ref.out) {
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
// through the direct kernel executor and the worker-pool interpreter. Both
// drive the same plane kernels, so outputs and Stats must be byte-identical
// across backends.
func FuzzDirectVsInterpretVCollectives(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(1))
	f.Add(int64(3), uint8(2), uint8(7), uint8(2))
	f.Add(int64(-9), uint8(3), uint8(255), uint8(3))
	f.Add(int64(1<<40), uint8(2), uint8(128), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, order, rootSeed, shape uint8) {
		t.Parallel()
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
			run  func(rt *Runtime) (any, Stats, error)
		}
		probes := []probe{
			{"gather", func(rt *Runtime) (any, Stats, error) {
				out, st, err := GatherOn(rt, root, in)
				return out, st, err
			}},
			{"scatter", func(rt *Runtime) (any, Stats, error) {
				out, st, err := ScatterOn(rt, root, in)
				return out, st, err
			}},
			{"allgather", func(rt *Runtime) (any, Stats, error) {
				out, st, err := AllGatherOn(rt, in)
				return out, st, err
			}},
			{"alltoall", func(rt *Runtime) (any, Stats, error) {
				out, st, err := AllToAllOn(rt, a2a)
				return out, st, err
			}},
			{"alltoallv", func(rt *Runtime) (any, Stats, error) {
				out, st, err := AllToAllVOn(rt, a2av)
				return out, st, err
			}},
		}
		direct := runtimeWith(t, "dualcube", n, machine.Config{Sched: machine.SchedDefault})
		pool := runtimeWith(t, "dualcube", n, machine.Config{Sched: machine.SchedWorkerPool})
		for _, p := range probes {
			directOut, directStats, err := p.run(direct)
			if err != nil {
				t.Fatalf("%s: direct: %v", p.name, err)
			}
			out, st, err := p.run(pool)
			if err != nil {
				t.Fatalf("%s: worker-pool: %v", p.name, err)
			}
			if st != directStats {
				t.Errorf("%s: stats diverge\n  direct: %+v\n  engine: %+v", p.name, directStats, st)
			}
			if !reflect.DeepEqual(out, directOut) {
				t.Errorf("%s: outputs diverge from the direct executor", p.name)
			}
		}
	})
}

// FuzzDirectVsInterpretSort is the sort family's differential fuzzer: random
// keys with heavy duplicates (a small value range forces equal-key ties,
// where the keep-local-on-tie rule must agree across backends), both sort
// Orders, on D_2..D_4 — run through the direct kernel executor and the
// worker-pool interpreter. Both must produce identical outputs and
// identical Stats. A chunk size
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
		t.Parallel()
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
		run := func(s machine.Sched) (any, Stats, error) {
			rt := runtimeWith(t, "dualcube", n, machine.Config{Sched: s})
			if k == 1 {
				return SortOn(rt, in, ord)
			}
			return SortLargeFuncOn(rt, k, tagged, tieLess, ord)
		}

		directOut, directStats, err := run(machine.SchedDefault)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		out, st, err := run(machine.SchedWorkerPool)
		if err != nil {
			t.Fatalf("worker-pool: %v", err)
		}
		if st != directStats {
			t.Errorf("stats diverge\n  direct: %+v\n  engine: %+v", directStats, st)
		}
		if !reflect.DeepEqual(out, directOut) {
			t.Errorf("outputs diverge from the direct executor (k=%d)\n  direct: %v\n  engine: %v", k, directOut, out)
		}
	})
}
