package prefix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

func TestSegMonoidAssociative(t *testing.T) {
	m := segMonoid(monoid.Concat())
	samples := []seg[string]{
		{false, "a"}, {true, "b"}, {false, "c"}, {true, ""}, {false, ""},
	}
	for _, a := range samples {
		for _, b := range samples {
			for _, c := range samples {
				l := m.Combine(m.Combine(a, b), c)
				r := m.Combine(a, m.Combine(b, c))
				if l != r {
					t.Fatalf("segmented monoid not associative on (%v,%v,%v): %v vs %v", a, b, c, l, r)
				}
			}
		}
	}
	id := m.Identity()
	for _, x := range samples {
		if m.Combine(id, x) != x || m.Combine(x, id) != x {
			t.Fatalf("segmented identity broken for %v", x)
		}
	}
}

func TestDPrefixSegmentedSum(t *testing.T) {
	n := 3
	N := 1 << (2*n - 1)
	values := make([]int, N)
	heads := make([]bool, N)
	for i := range values {
		values[i] = i + 1
		heads[i] = i%5 == 0
	}
	got, st, err := DPrefixSegmented(machine.Config{}, topology.MustDualCube(n), values, heads, monoid.Sum[int]())
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SegmentedScanInclusive(values, heads, monoid.Sum[int]())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segmented scan wrong at %d: %d vs %d", i, got[i], want[i])
		}
	}
	// Segmentation must not change the communication cost.
	if st.Cycles != MeasuredCommSteps(n) {
		t.Errorf("segmented scan comm = %d, want %d", st.Cycles, MeasuredCommSteps(n))
	}
}

func TestDPrefixSegmentedEdgeCases(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	values := []int{3, 1, 4, 1, 5, 9, 2, 6}

	// No heads at all: equals the plain inclusive scan.
	got, _, err := DPrefixSegmented(machine.Config{}, topology.MustDualCube(n), values, make([]bool, N), monoid.Sum[int]())
	if err != nil {
		t.Fatal(err)
	}
	plain := seq.ScanInclusive(values, monoid.Sum[int]())
	for i := range plain {
		if got[i] != plain[i] {
			t.Fatalf("head-free segmented scan differs at %d", i)
		}
	}

	// Every position a head: output equals input.
	allHeads := make([]bool, N)
	for i := range allHeads {
		allHeads[i] = true
	}
	got, _, err = DPrefixSegmented(machine.Config{}, topology.MustDualCube(n), values, allHeads, monoid.Sum[int]())
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("all-heads segmented scan differs at %d", i)
		}
	}
}

func TestDPrefixSegmentedNonCommutative(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	values := make([]string, N)
	heads := make([]bool, N)
	for i := range values {
		values[i] = string(rune('a' + i))
		heads[i] = i == 3 || i == 6
	}
	got, _, err := DPrefixSegmented(machine.Config{}, topology.MustDualCube(n), values, heads, monoid.Concat())
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SegmentedScanInclusive(values, heads, monoid.Concat())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segmented concat wrong at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestDPrefixSegmentedQuick(t *testing.T) {
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed)%3 + 1
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(seed))
		values := make([]int, N)
		heads := make([]bool, N)
		for i := range values {
			values[i] = rng.Intn(100)
			heads[i] = rng.Intn(3) == 0
		}
		got, _, err := DPrefixSegmented(machine.Config{}, topology.MustDualCube(n), values, heads, monoid.Sum[int]())
		if err != nil {
			return false
		}
		want := seq.SegmentedScanInclusive(values, heads, monoid.Sum[int]())
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

func TestDPrefixSegmentedBadInput(t *testing.T) {
	if _, _, err := DPrefixSegmented(machine.Config{}, topology.MustDualCube(2), make([]int, 8), make([]bool, 7), monoid.Sum[int]()); err == nil {
		t.Error("flag/value length mismatch should fail")
	}
	if _, _, err := DPrefixSegmented(machine.Config{}, topology.MustDualCube(2), nil, nil, monoid.Sum[int]()); err == nil {
		t.Error("empty input should fail")
	}
}
