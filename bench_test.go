// Benchmarks, one per experiment in DESIGN.md's index. Each measures the
// wall-clock cost of one full run on the default backend (the direct
// executor for compiled schedules, the worker-pool engine for everything
// else; BenchmarkSchedulers and BenchmarkE22SortSchedulers compare the two
// head to head); the step counts the paper's theorems bound are asserted in
// the unit tests and reported by cmd/dcbench — here we measure the
// simulator.
//
// Run: go test -bench=. -benchmem
package dualcube

import (
	"fmt"
	"math/rand"
	"testing"

	"dualcube/internal/collective"
	"dualcube/internal/embedding"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/ntt"
	"dualcube/internal/prefix"
	"dualcube/internal/samplesort"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

func benchInput(n int) []int {
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(int64(n)))
	in := make([]int, N)
	for i := range in {
		in[i] = rng.Intn(1 << 20)
	}
	return in
}

// sharedDualCube returns the process-wide D_n, the topology the facade's
// one-shot calls run on.
func sharedDualCube(n int) topology.Comm {
	d, _ := topology.Shared(n)
	return d
}

// BenchmarkE2Diameter measures the all-pairs BFS diameter check of the
// structural experiment.
func BenchmarkE2Diameter(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		d := topology.MustDualCube(n)
		b.Run(fmt.Sprintf("D_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if topology.DiameterBFS(d) != d.Diameter() {
					b.Fatal("diameter mismatch")
				}
			}
		})
	}
}

// BenchmarkE4DPrefix: Algorithm 2 (cluster-technique prefix) on D_n.
func BenchmarkE4DPrefix(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		in := benchInput(n)
		b.Run(fmt.Sprintf("D_%d/nodes=%d", n, len(in)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prefix.DPrefix(machine.Config{}, sharedDualCube(n), in, monoid.Sum[int](), true, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4EmulatedPrefix: the ablation — naive hypercube emulation.
func BenchmarkE4EmulatedPrefix(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		in := benchInput(n)
		b.Run(fmt.Sprintf("D_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prefix.EmulatedCubePrefix(machine.Config{}, sharedDualCube(n), in, monoid.Sum[int](), true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5CubePrefix: Algorithm 1 on the equal-sized hypercube.
func BenchmarkE5CubePrefix(b *testing.B) {
	for _, q := range []int{3, 5, 7, 9, 11} {
		rng := rand.New(rand.NewSource(int64(q)))
		in := make([]int, 1<<q)
		for i := range in {
			in[i] = rng.Intn(1 << 20)
		}
		b.Run(fmt.Sprintf("Q_%d/nodes=%d", q, len(in)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prefix.CubePrefix(machine.Config{}, q, in, monoid.Sum[int](), true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8DSort: Algorithm 3 on D_n.
func BenchmarkE8DSort(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		in := benchInput(n)
		b.Run(fmt.Sprintf("D_%d/nodes=%d", n, len(in)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sortnet.DSort(machine.Config{}, sharedDualCube(n), in, func(a, b int) bool { return a < b }, sortnet.Ascending, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9CubeSort: bitonic sort baseline on Q_{2n-1}.
func BenchmarkE9CubeSort(b *testing.B) {
	for _, q := range []int{3, 5, 7, 9} {
		rng := rand.New(rand.NewSource(int64(q)))
		in := make([]int, 1<<q)
		for i := range in {
			in[i] = rng.Intn(1 << 20)
		}
		b.Run(fmt.Sprintf("Q_%d/nodes=%d", q, len(in)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sortnet.CubeSort(machine.Config{}, q, in, func(a, b int) bool { return a < b }, sortnet.Ascending); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12PrefixLarge: k elements per node; communication constant in k.
func BenchmarkE12PrefixLarge(b *testing.B) {
	const n = 3
	for _, k := range []int{1, 16, 256} {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(k)))
		in := make([]int, k*N)
		for i := range in {
			in[i] = rng.Intn(1 << 20)
		}
		b.Run(fmt.Sprintf("D_%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prefix.DPrefixLarge(machine.Config{}, sharedDualCube(n), k, in, monoid.Sum[int](), true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12SortLarge: merge-split sort with k keys per node.
func BenchmarkE12SortLarge(b *testing.B) {
	const n = 3
	for _, k := range []int{1, 16, 64} {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(k)))
		in := make([]int, k*N)
		for i := range in {
			in[i] = rng.Intn(1 << 20)
		}
		b.Run(fmt.Sprintf("D_%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sortnet.DSortLarge(machine.Config{}, sharedDualCube(n), k, in, func(a, b int) bool { return a < b }, sortnet.Ascending); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13Collectives: broadcast, all-reduce and gather at 2n steps.
func BenchmarkE13Collectives(b *testing.B) {
	for _, n := range []int{4, 7} {
		in := benchInput(n)
		b.Run(fmt.Sprintf("Broadcast/D_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := collective.Broadcast(machine.Config{}, sharedDualCube(n), 5, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("AllReduce/D_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := collective.AllReduce(machine.Config{}, sharedDualCube(n), in, monoid.Sum[int]()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Gather/D_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := collective.Gather(machine.Config{}, sharedDualCube(n), 5, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulers runs the same D_prefix workload under both execution
// backends — the worker-pool engine and the direct kernel executor, one
// Runtime each — the head-to-head behind the backend numbers in
// EXPERIMENTS.md (E21 pins direct at >= 2x over the worker pool on D_6).
func BenchmarkSchedulers(b *testing.B) {
	for _, n := range []int{5, 6} {
		in := benchInput(n)
		for _, s := range backends {
			b.Run(fmt.Sprintf("%v/D_%d", s, n), func(b *testing.B) {
				b.ReportAllocs()
				rt := runtimeWith(b, "dualcube", n, machine.Config{Sched: s})
				for i := 0; i < b.N; i++ {
					if _, _, err := PrefixOn(rt, in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE22SortSchedulers runs the same D_sort workload under both
// execution backends, one Runtime each — the head-to-head behind the sort
// kernelization numbers in EXPERIMENTS.md (E22 pins direct at >= 5x over
// the worker pool on D_4, mirroring what E21 measured for prefix).
func BenchmarkE22SortSchedulers(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		in := benchInput(n)
		for _, s := range backends {
			b.Run(fmt.Sprintf("%v/D_%d", s, n), func(b *testing.B) {
				b.ReportAllocs()
				rt := runtimeWith(b, "dualcube", n, machine.Config{Sched: s})
				for i := 0; i < b.N; i++ {
					if _, _, err := SortOn(rt, in, Ascending); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPermute: oblivious permutation routing (one sort's cost).
func BenchmarkPermute(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(n)))
		dests := rng.Perm(N)
		values := make([]int, N)
		for i := range values {
			values[i] = rng.Int()
		}
		b.Run(fmt.Sprintf("D_%d/nodes=%d", n, N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sortnet.Permute(machine.Config{}, sharedDualCube(n), dests, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllToAll: the total exchange (2n rounds, O(N) payload per node).
func BenchmarkAllToAll(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		N := 1 << (2*n - 1)
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = i*N + j
			}
		}
		b.Run(fmt.Sprintf("D_%d/nodes=%d", n, N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := collective.AllToAll(machine.Config{}, sharedDualCube(n), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSegmentedPrefix: segmentation is free (same 2n steps).
func BenchmarkSegmentedPrefix(b *testing.B) {
	const n = 4
	N := 1 << (2*n - 1)
	values := make([]int, N)
	heads := make([]bool, N)
	for i := range values {
		values[i] = i
		heads[i] = i%7 == 0
	}
	b.Run(fmt.Sprintf("D_%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := prefix.DPrefixSegmented(machine.Config{}, sharedDualCube(n), values, heads, monoid.Sum[int]()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHamiltonianCycle: constructing + verifying the ring embedding.
func BenchmarkHamiltonianCycle(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		d := topology.MustDualCube(n)
		b.Run(fmt.Sprintf("D_%d/nodes=%d", n, d.Nodes()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cycle, err := embedding.DualCubeHamiltonianCycle(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := embedding.VerifyCycle(d, cycle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNTT: the emulated butterfly (E16) on dual-cube vs hypercube.
func BenchmarkNTT(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		N := 1 << (2*n - 1)
		in := make([]uint64, N)
		for i := range in {
			in[i] = uint64(i*2654435761) % ntt.Mod
		}
		b.Run(fmt.Sprintf("dualcube/D_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ntt.Transform(machine.Config{}, sharedDualCube(n), in, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("hypercube/Q_%d", 2*n-1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ntt.CubeTransform(machine.Config{}, 2*n-1, in, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE17SampleSort: the collective-based sorting family vs bitonic.
func BenchmarkE17SampleSort(b *testing.B) {
	const k = 16
	for _, n := range []int{2, 3, 4} {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([]int, k*N)
		for i := range in {
			in[i] = rng.Intn(1 << 20)
		}
		b.Run(fmt.Sprintf("samplesort/D_%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := samplesort.Sort(machine.Config{}, sharedDualCube(n), k, in, func(a, b int) bool { return a < b }); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bitonic/D_%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sortnet.DSortLarge(machine.Config{}, sharedDualCube(n), k, in, func(a, b int) bool { return a < b }, sortnet.Ascending); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
