package prefix

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dualcube/internal/emulate"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

func randInts(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(2001) - 1000
	}
	return out
}

func TestCubePrefixSumAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for q := 0; q <= 9; q++ {
		in := randInts(rng, 1<<q)
		for _, inclusive := range []bool{true, false} {
			got, st, err := CubePrefix(machine.Config{}, q, in, monoid.Sum[int](), inclusive)
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			want := seq.ScanInclusive(in, monoid.Sum[int]())
			if !inclusive {
				want = seq.ScanExclusive(in, monoid.Sum[int]())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d inclusive=%v: out[%d]=%d, want %d", q, inclusive, i, got[i], want[i])
				}
			}
			if st.Cycles != q {
				t.Errorf("q=%d: comm steps %d, want %d", q, st.Cycles, q)
			}
			if st.MaxOps != q {
				t.Errorf("q=%d: comp rounds %d, want %d", q, st.MaxOps, q)
			}
		}
	}
}

func TestCubePrefixNonCommutative(t *testing.T) {
	q := 4
	in := make([]string, 1<<q)
	for i := range in {
		in[i] = string(rune('a' + i%26))
	}
	got, _, err := CubePrefix(machine.Config{}, q, in, monoid.Concat(), true)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.ScanInclusive(in, monoid.Concat())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concat prefix wrong at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestCubePrefixBadInput(t *testing.T) {
	if _, _, err := CubePrefix(machine.Config{}, 3, make([]int, 7), monoid.Sum[int](), true); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := CubePrefix(machine.Config{}, -1, nil, monoid.Sum[int](), true); err == nil {
		t.Error("negative dimension should fail")
	}
}

func TestDPrefixSumAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 6; n++ {
		in := randInts(rng, 1<<(2*n-1))
		for _, inclusive := range []bool{true, false} {
			got, st, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), inclusive, nil)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			want := seq.ScanInclusive(in, monoid.Sum[int]())
			if !inclusive {
				want = seq.ScanExclusive(in, monoid.Sum[int]())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inclusive=%v: out[%d]=%d, want %d", n, inclusive, i, got[i], want[i])
				}
			}
			// Theorem 1: measured 2n comm steps (bound 2n+1), 2n comp rounds.
			if st.Cycles != MeasuredCommSteps(n) {
				t.Errorf("n=%d: comm steps %d, want %d", n, st.Cycles, MeasuredCommSteps(n))
			}
			if st.Cycles > PaperCommBound(n) {
				t.Errorf("n=%d: comm steps %d exceed Theorem 1 bound %d", n, st.Cycles, PaperCommBound(n))
			}
			if st.MaxOps > PaperCompBound(n) {
				t.Errorf("n=%d: comp rounds %d exceed Theorem 1 bound %d", n, st.MaxOps, PaperCompBound(n))
			}
			if st.CommCycles != st.Cycles {
				t.Errorf("n=%d: idle cycles in D_prefix: %d of %d", n, st.Cycles-st.CommCycles, st.Cycles)
			}
		}
	}
}

func TestDPrefixNonCommutativeOrder(t *testing.T) {
	// String concatenation over every node: any combine-order error
	// produces a permuted string, so this pins the exact element order.
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]string, N)
		for i := range in {
			in[i] = string(rune('A'+i%26)) + string(rune('a'+(i/26)%26))
		}
		got, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Concat(), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.ScanInclusive(in, monoid.Concat())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: order violated at %d:\n got %q\nwant %q", n, i, got[i], want[i])
			}
		}
	}
}

func TestDPrefixMatrixMonoid(t *testing.T) {
	// Prefix products of [[1,a],[0,1]] matrices: non-commutative and
	// numerically checkable (the top-right entry accumulates the sum).
	n := 3
	N := 1 << (2*n - 1)
	in := make([]monoid.Mat2, N)
	sum := int64(0)
	for i := range in {
		in[i] = monoid.Mat2{1, int64(i + 1), 0, 1}
	}
	got, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Mat2Mul(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sum += int64(i + 1)
		want := monoid.Mat2{1, sum, 0, 1}
		if got[i] != want {
			t.Fatalf("mat2 prefix wrong at %d: %v, want %v", i, got[i], want)
		}
	}
}

func TestDPrefixMaxMinXor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3
	N := 1 << (2*n - 1)
	ints := randInts(rng, N)
	for _, m := range []monoid.Monoid[int]{monoid.MaxInt(), monoid.MinInt()} {
		got, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), ints, m, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.ScanInclusive(ints, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s prefix wrong at %d", m.Name, i)
			}
		}
	}
	words := make([]uint64, N)
	for i := range words {
		words[i] = rng.Uint64()
	}
	got, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), words, monoid.Xor(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.ScanExclusive(words, monoid.Xor())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("xor diminished prefix wrong at %d", i)
		}
	}
}

func TestDPrefixQuickProperty(t *testing.T) {
	// Random sizes and random data against the golden scan.
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		in := randInts(rng, 1<<(2*n-1))
		got, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, nil)
		if err != nil {
			return false
		}
		want := seq.ScanInclusive(in, monoid.Sum[int]())
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDPrefixBadInput(t *testing.T) {
	if _, _, err := DPrefix(machine.Config{}, topology.MustDualCube(2), make([]int, 5), monoid.Sum[int](), true, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := DPrefix(machine.Config{}, topology.MustDualCube(2), nil, monoid.Sum[int](), true, nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestDPrefixCombineCount(t *testing.T) {
	// Raw ⊕ applications per run: step 1 and step 3 apply at most 2 per
	// round per node, steps 4 and 5 one each. Validate the global count is
	// within the structural budget (and that ops accounting is plausible).
	n := 3
	N := 1 << (2*n - 1)
	var raw atomic.Int64
	m := monoid.CountedCombine(monoid.Sum[int](), &raw)
	in := make([]int, N)
	for i := range in {
		in[i] = i
	}
	_, st, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, m, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxRaw := int64(N * (2*2*(n-1) + 2)) // 2 per ascend round + final folds
	if raw.Load() > maxRaw {
		t.Errorf("raw combines %d exceed budget %d", raw.Load(), maxRaw)
	}
	if st.TotalOps <= 0 || st.MaxOps != 2*n {
		t.Errorf("ops accounting: %+v", st)
	}
}

func TestDPrefixTrace(t *testing.T) {
	// The Figure 3 snapshots: on an all-ones input of D_3, panel (a) is
	// ones, panel (b)'s s is the within-block ramp, panel (f) is 1..32.
	n := 3
	N := 1 << (2*n - 1)
	in := make([]int, N)
	for i := range in {
		in[i] = 1
	}
	var tr Trace[int]
	got, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) != 6 {
		t.Fatalf("trace has %d phases, want 6", len(tr.Phases))
	}
	blk := 1 << (n - 1)
	for i := 0; i < N; i++ {
		if tr.Phases[0].S[i] != 1 {
			t.Errorf("phase a at %d: %d", i, tr.Phases[0].S[i])
		}
		if want := i%blk + 1; tr.Phases[1].S[i] != want {
			t.Errorf("phase b s at %d: %d, want %d", i, tr.Phases[1].S[i], want)
		}
		if tr.Phases[1].T[i] != blk {
			t.Errorf("phase b t at %d: %d, want %d", i, tr.Phases[1].T[i], blk)
		}
		if tr.Phases[5].S[i] != i+1 {
			t.Errorf("phase f at %d: %d, want %d", i, tr.Phases[5].S[i], i+1)
		}
		if got[i] != i+1 {
			t.Errorf("result at %d: %d", i, got[i])
		}
	}
}

func TestEmulatedCubePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 4; n++ {
		in := randInts(rng, 1<<(2*n-1))
		got, st, err := EmulatedCubePrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := seq.ScanInclusive(in, monoid.Sum[int]())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: emulated prefix wrong at %d", n, i)
			}
		}
		if st.Cycles != emulate.CommSteps(n) {
			t.Errorf("n=%d: emulated comm %d, want %d", n, st.Cycles, emulate.CommSteps(n))
		}
		// The ablation: the cluster technique must beat naive emulation for
		// every n >= 2.
		if n >= 2 && st.Cycles <= MeasuredCommSteps(n) {
			t.Errorf("n=%d: emulation (%d) unexpectedly as cheap as D_prefix (%d)", n, st.Cycles, MeasuredCommSteps(n))
		}
	}
	if _, _, err := EmulatedCubePrefix(machine.Config{}, topology.MustDualCube(2), make([]int, 3), monoid.Sum[int](), true); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := EmulatedCubePrefix(machine.Config{}, topology.MustDualCube(2), nil, monoid.Sum[int](), true); err == nil {
		t.Error("empty input should fail")
	}
}

// TestNormalPrefixStatsPinned pins Algorithm 1 on Q_q (q = 0..11) and its
// emulation on D_n (n = 1..6) to the Stats the engine-only node programs
// reported, on both backends, with identical outputs: Q_q takes q cycles,
// q·2^q messages and q rounds per node; the emulated sweep on D_n takes
// 6n-5 cycles, N(4n-3) messages (N for the cross hop, 2N per routed
// dimension) and 2n-1 rounds per node.
func TestNormalPrefixStatsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pinned := func(name string, want machine.Stats, run func(machine.Config) ([]int, machine.Stats, error)) {
		t.Helper()
		var ref []int
		for _, s := range []machine.Sched{machine.SchedWorkerPool, machine.SchedDefault} {
			got, st, err := run(machine.Config{Sched: s})
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			if st != want {
				t.Errorf("%s %v: stats %+v, want %+v", name, s, st, want)
			}
			if ref == nil {
				ref = got
			} else if !slices.Equal(got, ref) {
				t.Errorf("%s: outputs diverge between backends", name)
			}
		}
	}
	for q := 0; q <= 11; q++ {
		N := 1 << q
		in := randInts(rng, N)
		pinned(fmt.Sprintf("Q_%d", q), machine.Stats{Nodes: N, Cycles: q, CommCycles: q, Messages: int64(q * N), MaxOps: q, TotalOps: int64(q * N)},
			func(cfg machine.Config) ([]int, machine.Stats, error) {
				return CubePrefix(cfg, q, in, monoid.Sum[int](), q%2 == 0)
			})
	}
	for n := 1; n <= 6; n++ {
		N := 1 << (2*n - 1)
		in := randInts(rng, N)
		c := 6*n - 5
		pinned(fmt.Sprintf("emulated D_%d", n), machine.Stats{Nodes: N, Cycles: c, CommCycles: c, Messages: int64(N * (4*n - 3)), MaxOps: 2*n - 1, TotalOps: int64((2*n - 1) * N)},
			func(cfg machine.Config) ([]int, machine.Stats, error) {
				return EmulatedCubePrefix(cfg, topology.MustDualCube(n), in, monoid.Sum[int](), n%2 == 1)
			})
	}
}

func TestDPrefixLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, k int }{{1, 1}, {1, 4}, {2, 3}, {3, 4}, {3, 16}, {4, 5}} {
		N := 1 << (2*tc.n - 1)
		in := randInts(rng, tc.k*N)
		for _, inclusive := range []bool{true, false} {
			got, st, err := DPrefixLarge(machine.Config{}, topology.MustDualCube(tc.n), tc.k, in, monoid.Sum[int](), inclusive)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
			}
			want := seq.ScanInclusive(in, monoid.Sum[int]())
			if !inclusive {
				want = seq.ScanExclusive(in, monoid.Sum[int]())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d inclusive=%v: wrong at %d: %d vs %d", tc.n, tc.k, inclusive, i, got[i], want[i])
				}
			}
			// Communication independent of k: the future-work claim.
			if st.Cycles != MeasuredCommSteps(tc.n) {
				t.Errorf("n=%d k=%d: comm %d, want %d", tc.n, tc.k, st.Cycles, MeasuredCommSteps(tc.n))
			}
		}
	}
}

func TestDPrefixLargeNonCommutative(t *testing.T) {
	n, k := 2, 3
	N := 1 << (2*n - 1)
	in := make([]string, k*N)
	for i := range in {
		in[i] = string(rune('a' + i%26))
	}
	got, _, err := DPrefixLarge(machine.Config{}, topology.MustDualCube(n), k, in, monoid.Concat(), true)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.ScanInclusive(in, monoid.Concat())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("large concat wrong at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestDPrefixLargeCountedSum checks that a counted Sum reaches DPrefixLarge
// without Sum's direct row loops: every chunk-scan and offset-fold combine
// goes through the counted Combine, so it counts exactly what a counted
// literal + monoid counts.
func TestDPrefixLargeCountedSum(t *testing.T) {
	const n, k = 3, 5
	c := topology.MustDualCube(n)
	in := randInts(rand.New(rand.NewSource(6)), k*c.Nodes())
	plus := monoid.Monoid[int]{Name: "plus", Identity: func() int { return 0 }, Combine: func(a, b int) int { return a + b }}
	for _, inclusive := range []bool{true, false} {
		var sum, lit atomic.Int64
		got, _, err := DPrefixLarge(machine.Config{}, c, k, in, monoid.CountedCombine(monoid.Sum[int](), &sum), inclusive)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := DPrefixLarge(machine.Config{}, c, k, in, monoid.CountedCombine(plus, &lit), inclusive)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("inclusive=%v: counted Sum and counted + disagree", inclusive)
		}
		// Each node combines its k elements twice (scan and fold), plus
		// the ladder over the chunk totals.
		if sum.Load() != lit.Load() || sum.Load() < int64(2*k*c.Nodes()) {
			t.Errorf("inclusive=%v: counted Sum made %d combines, counted + made %d (at least %d expected)",
				inclusive, sum.Load(), lit.Load(), 2*k*c.Nodes())
		}
	}
}

func TestDPrefixLargeBadInput(t *testing.T) {
	if _, _, err := DPrefixLarge(machine.Config{}, topology.MustDualCube(2), 0, nil, monoid.Sum[int](), true); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := DPrefixLarge(machine.Config{}, topology.MustDualCube(2), 2, make([]int, 15), monoid.Sum[int](), true); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := DPrefixLarge(machine.Config{}, topology.MustDualCube(2), 1, nil, monoid.Sum[int](), true); err == nil {
		t.Error("empty input should fail")
	}
}

func TestDPrefixRecordedMatchesDPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 4; n++ {
		in := randInts(rng, 1<<(2*n-1))
		plain, stP, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, stR, recording, err := DPrefixRecorded(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if plain[i] != rec[i] {
				t.Fatalf("n=%d: recorded output differs at %d", n, i)
			}
		}
		if stP != stR {
			t.Errorf("n=%d: stats differ: %+v vs %+v", n, stP, stR)
		}
		if int64(len(recording.Events)) != stR.Messages {
			t.Errorf("n=%d: %d events for %d messages", n, len(recording.Events), stR.Messages)
		}
		// D_prefix traffic is perfectly balanced: every node sends exactly
		// one message per comm cycle, so each directed link carries at most
		// 2 messages (the two cross rounds / the two cluster rounds per dim).
		load, _ := recording.MaxLinkLoad()
		if load != 2 {
			t.Errorf("n=%d: max link load %d, want 2", n, load)
		}
	}
	if _, _, _, err := DPrefixRecorded(machine.Config{}, topology.MustDualCube(2), nil, monoid.Sum[int](), true); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, _, err := DPrefixRecorded(machine.Config{}, topology.MustDualCube(2), make([]int, 3), monoid.Sum[int](), true); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestDPrefixD7Smoke(t *testing.T) {
	// 8192 goroutine-nodes end to end.
	if testing.Short() {
		t.Skip("large machine smoke skipped in -short mode")
	}
	n := 7
	N := 1 << (2*n - 1)
	in := make([]int, N)
	for i := range in {
		in[i] = 1
	}
	got, st, err := DPrefix(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int](), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i+1 {
			t.Fatalf("wrong at %d", i)
		}
	}
	if st.Cycles != 2*n || int(st.Messages) != 2*n*N {
		t.Errorf("stats: %+v", st)
	}
}
