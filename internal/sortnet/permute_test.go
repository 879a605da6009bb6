package sortnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

func TestPermuteIdentity(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	dests := make([]int, N)
	values := make([]string, N)
	for i := range dests {
		dests[i] = i
		values[i] = string(rune('a' + i))
	}
	got, st, err := Permute(machine.Config{}, topology.MustDualCube(n), dests, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("identity permute moved element %d", i)
		}
	}
	if st.Cycles != DSortCommSteps(n) {
		t.Errorf("permute comm = %d, want %d", st.Cycles, DSortCommSteps(n))
	}
}

func TestPermuteReversal(t *testing.T) {
	n := 3
	N := 1 << (2*n - 1)
	dests := make([]int, N)
	values := make([]int, N)
	for i := range dests {
		dests[i] = N - 1 - i
		values[i] = i * 7
	}
	got, _, err := Permute(machine.Config{}, topology.MustDualCube(n), dests, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got[N-1-i] != values[i] {
			t.Fatalf("reversal wrong at %d", i)
		}
	}
}

func TestPermuteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		for trial := 0; trial < 10; trial++ {
			dests := rng.Perm(N)
			values := make([]int, N)
			for i := range values {
				values[i] = rng.Int()
			}
			got, _, err := Permute(machine.Config{}, topology.MustDualCube(n), dests, values)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range values {
				if got[dests[i]] != values[i] {
					t.Fatalf("n=%d: element %d not delivered to %d", n, i, dests[i])
				}
			}
		}
	}
}

func TestPermuteQuick(t *testing.T) {
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed)%3 + 1
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(seed))
		dests := rng.Perm(N)
		values := make([]int, N)
		for i := range values {
			values[i] = rng.Int()
		}
		got, _, err := Permute(machine.Config{}, topology.MustDualCube(n), dests, values)
		if err != nil {
			return false
		}
		for i := range values {
			if got[dests[i]] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	if _, _, err := Permute(machine.Config{}, topology.MustDualCube(2), []int{0, 1, 2, 3, 4, 5, 6, 6}, make([]int, 8)); err == nil {
		t.Error("duplicate destination should fail")
	}
	if _, _, err := Permute(machine.Config{}, topology.MustDualCube(2), []int{0, 1, 2, 3, 4, 5, 6, 8}, make([]int, 8)); err == nil {
		t.Error("out-of-range destination should fail")
	}
	if _, _, err := Permute(machine.Config{}, topology.MustDualCube(2), []int{0, 1}, make([]int, 8)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := Permute(machine.Config{}, topology.MustDualCube(2), nil, []int{}); err == nil {
		t.Error("empty input should fail")
	}
}
