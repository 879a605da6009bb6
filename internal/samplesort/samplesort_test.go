package samplesort

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/seq"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

func intLess(a, b int) bool { return a < b }

func TestSampleSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, k int }{{1, 4}, {2, 2}, {2, 16}, {3, 8}, {3, 64}, {4, 16}} {
		N := 1 << (2*tc.n - 1)
		in := make([]int, tc.k*N)
		for i := range in {
			in[i] = rng.Intn(10000) - 5000
		}
		got, st, err := Sort(machine.Config{}, topology.MustDualCube(tc.n), tc.k, in, intLess)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if !seq.IsSorted(got, intLess) {
			t.Fatalf("n=%d k=%d: not sorted", tc.n, tc.k)
		}
		if !seq.SameMultiset(in, got, intLess) {
			t.Fatalf("n=%d k=%d: multiset changed", tc.n, tc.k)
		}
		if st.Cycles != 4*tc.n {
			t.Errorf("n=%d k=%d: rounds %d, want %d", tc.n, tc.k, st.Cycles, 4*tc.n)
		}
	}
}

func TestSampleSortAdversarial(t *testing.T) {
	n, k := 2, 8
	N := 1 << (2*n - 1)
	cases := map[string]func(i int) int{
		"all-equal":      func(i int) int { return 7 },
		"already-sorted": func(i int) int { return i },
		"reverse":        func(i int) int { return k*N - i },
		"two-values":     func(i int) int { return i % 2 },
		"one-outlier":    func(i int) int { return map[bool]int{true: 1 << 30, false: 5}[i == 17] },
	}
	for label, gen := range cases {
		in := make([]int, k*N)
		for i := range in {
			in[i] = gen(i)
		}
		got, _, err := Sort(machine.Config{}, topology.MustDualCube(n), k, in, intLess)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !seq.IsSorted(got, intLess) || !seq.SameMultiset(in, got, intLess) {
			t.Fatalf("%s: wrong output", label)
		}
	}
}

func TestSampleSortSmallK(t *testing.T) {
	// k < P-1 forces repeated samples; must still sort.
	n, k := 3, 2
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(2))
	in := make([]int, k*N)
	for i := range in {
		in[i] = rng.Intn(100)
	}
	got, _, err := Sort(machine.Config{}, topology.MustDualCube(n), k, in, intLess)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSorted(got, intLess) || !seq.SameMultiset(in, got, intLess) {
		t.Fatal("small-k sample sort failed")
	}
}

func TestSampleSortVsBitonicCost(t *testing.T) {
	// The headline trade: 4n collective rounds vs 6n²-7n+2 steps.
	for n := 2; n <= 6; n++ {
		if 4*n >= sortnet.DSortCommSteps(n) {
			t.Errorf("n=%d: sample sort rounds %d not below bitonic %d", n, 4*n, sortnet.DSortCommSteps(n))
		}
	}
}

func TestSampleSortQuick(t *testing.T) {
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%3 + 1
		k := int(kSeed)%12 + 1
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, k*N)
		for i := range in {
			in[i] = rng.Intn(500)
		}
		got, _, err := Sort(machine.Config{}, topology.MustDualCube(n), k, in, intLess)
		if err != nil {
			return false
		}
		return seq.IsSorted(got, intLess) && seq.SameMultiset(in, got, intLess)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSampleSortBadInputs(t *testing.T) {
	if _, _, err := Sort(machine.Config{}, topology.MustDualCube(2), 1, nil, intLess); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := Sort(machine.Config{}, topology.MustDualCube(2), 0, nil, intLess); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := Sort(machine.Config{}, topology.MustDualCube(2), 2, make([]int, 5), intLess); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSampleSortRecords(t *testing.T) {
	type rec struct {
		key  int
		name string
	}
	n, k := 2, 4
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(3))
	in := make([]rec, k*N)
	for i := range in {
		in[i] = rec{key: rng.Intn(50), name: string(rune('a' + i%26))}
	}
	got, _, err := Sort(machine.Config{}, topology.MustDualCube(n), k, in, func(a, b rec) bool { return a.key < b.key })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].key < got[i-1].key {
			t.Fatal("records unsorted")
		}
	}
}
