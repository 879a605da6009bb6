package sortnet

import (
	"math/rand"
	"slices"
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

// mergeSplit returns the low or the high half of merge-splitting the
// ascending runs a and b, as the merge-split kernel keeps it.
func mergeSplit(a, b []int, less func(x, y int) bool, low bool) []int {
	out := make([]int, len(a))
	if low {
		mergeLow(out, a, b, less)
	} else {
		mergeHigh(out, a, b, less)
	}
	return out
}

// TestSortChunkStable checks the kernel's local pre-sort against the
// standard library's stable sort on tie-heavy records, at every chunk
// length up to 70 (odd lengths leave ragged merge runs).
func TestSortChunkStable(t *testing.T) {
	type rec struct{ key, tag int }
	less := func(a, b rec) bool { return a.key < b.key }
	rng := rand.New(rand.NewSource(8))
	for k := 0; k <= 70; k++ {
		chunk := make([]rec, k)
		for i := range chunk {
			chunk[i] = rec{rng.Intn(4), i}
		}
		want := slices.Clone(chunk)
		slices.SortStableFunc(want, func(a, b rec) int { return a.key - b.key })
		sortChunk(chunk, make([]rec, k), less)
		if !slices.Equal(chunk, want) {
			t.Fatalf("k=%d: sortChunk = %v, want the stable order %v", k, chunk, want)
		}
	}
}

func TestMergeSplit(t *testing.T) {
	a := []int{1, 4, 6, 9}
	b := []int{2, 3, 7, 8}
	low := mergeSplit(a, b, intLess, true)
	high := mergeSplit(a, b, intLess, false)
	wantLow := []int{1, 2, 3, 4}
	wantHigh := []int{6, 7, 8, 9}
	for i := range wantLow {
		if low[i] != wantLow[i] || high[i] != wantHigh[i] {
			t.Fatalf("mergeSplit: low=%v high=%v", low, high)
		}
	}
	// Together they must partition the union.
	if !seq.SameMultiset(append(append([]int{}, a...), b...), append(append([]int{}, low...), high...), intLess) {
		t.Error("mergeSplit lost elements")
	}
}

func TestMergeSplitDuplicates(t *testing.T) {
	a := []int{2, 2, 2}
	b := []int{2, 2, 2}
	low := mergeSplit(a, b, intLess, true)
	high := mergeSplit(a, b, intLess, false)
	for i := 0; i < 3; i++ {
		if low[i] != 2 || high[i] != 2 {
			t.Fatal("duplicates broken")
		}
	}
}

func TestMergeSplitRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(8)
		a := make([]int, k)
		b := make([]int, k)
		for i := 0; i < k; i++ {
			a[i] = rng.Intn(20)
			b[i] = rng.Intn(20)
		}
		a = seq.Sorted(a, intLess)
		b = seq.Sorted(b, intLess)
		low := mergeSplit(a, b, intLess, true)
		high := mergeSplit(a, b, intLess, false)
		if !seq.IsSorted(low, intLess) || !seq.IsSorted(high, intLess) {
			t.Fatalf("halves not sorted: %v %v", low, high)
		}
		// max(low) <= min(high)
		if len(low) > 0 && len(high) > 0 && intLess(high[0], low[len(low)-1]) {
			t.Fatalf("split point wrong: %v | %v", low, high)
		}
		all := append(append([]int{}, a...), b...)
		merged := append(append([]int{}, low...), high...)
		if !seq.SameMultiset(all, merged, intLess) {
			t.Fatalf("elements lost: %v %v -> %v %v", a, b, low, high)
		}
	}
}

func TestDSortLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, k int }{{1, 2}, {2, 1}, {2, 4}, {3, 3}, {3, 8}, {4, 4}} {
		N := 1 << (2*tc.n - 1)
		for _, ord := range []Order{Ascending, Descending} {
			in := make([]int, tc.k*N)
			for i := range in {
				in[i] = rng.Intn(200) - 100
			}
			got, st, err := DSortLarge(machine.Config{}, topology.MustDualCube(tc.n), tc.k, in, intLess, ord)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
			}
			checkSorted(t, "DSortLarge", in, got, ord)
			// Communication independent of k.
			if st.Cycles != DSortCommSteps(tc.n) {
				t.Errorf("n=%d k=%d: comm %d, want %d", tc.n, tc.k, st.Cycles, DSortCommSteps(tc.n))
			}
		}
	}
}

func TestDSortLargeK1MatchesDSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	n := 3
	N := 1 << (2*n - 1)
	in := make([]int, N)
	for i := range in {
		in[i] = rng.Intn(1000)
	}
	a, _, err := DSort(machine.Config{}, topology.MustDualCube(n), in, intLess, Ascending, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DSortLarge(machine.Config{}, topology.MustDualCube(n), 1, in, intLess, Ascending)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("k=1 large sort differs at %d", i)
		}
	}
}

// TestDSortLargeSharedArenas runs the merge-split kernel on the engine,
// whose node coroutines interleave within each cycle over the kernel's
// parity-buffered chunk arenas, and requires the direct run's outputs and
// Stats.
func TestDSortLargeSharedArenas(t *testing.T) {
	t.Parallel()
	const n, k = 4, 5
	rng := rand.New(rand.NewSource(9))
	in := make([]int, k<<(2*n-1))
	for i := range in {
		in[i] = rng.Intn(64)
	}
	want, wantSt, err := DSortLarge(machine.Config{}, topology.MustDualCube(n), k, in, intLess, Descending)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := DSortLarge(machine.Config{Sched: machine.SchedWorkerPool}, topology.MustDualCube(n), k, in, intLess, Descending)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || st != wantSt {
		t.Errorf("D_%d k=%d: the engine diverges from the direct run (stats %+v vs %+v)", n, k, st, wantSt)
	}
}

func TestLargeBadInput(t *testing.T) {
	if _, _, err := DSortLarge(machine.Config{}, topology.MustDualCube(2), 0, nil, intLess, Ascending); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := DSortLarge(machine.Config{}, topology.MustDualCube(2), 2, make([]int, 3), intLess, Ascending); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := DSortLarge(machine.Config{}, topology.MustDualCube(2), 1, nil, intLess, Ascending); err == nil {
		t.Error("empty input should fail")
	}
}
