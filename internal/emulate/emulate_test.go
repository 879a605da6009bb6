package emulate

import (
	"math/rand"
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

// sumStep is the simplest normal algorithm: all-reduce by recursive
// doubling (every node ends with the total).
func sumStep(dim, id int, mine, theirs int) int { return mine + theirs }

func TestAscendAllReduce(t *testing.T) {
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		total := 0
		for i := range in {
			in[i] = i*3 + 1
			total += in[i]
		}
		out, st, err := Ascend(machine.Config{}, topology.MustDualCube(n), in, sumStep)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r, v := range out {
			if v != total {
				t.Fatalf("n=%d: node %d got %d, want %d", n, r, v, total)
			}
		}
		if st.Cycles != CommSteps(n) {
			t.Errorf("n=%d: comm %d, want %d", n, st.Cycles, CommSteps(n))
		}
		if st.MaxOps != 2*n-1 {
			t.Errorf("n=%d: ops %d, want %d", n, st.MaxOps, 2*n-1)
		}
	}
}

// prefixStep implements Algorithm 1's ascend prefix via the framework,
// carrying (total, prefix) pairs.
type ts struct{ t, s int }

func prefixStep(dim, id int, mine, theirs ts) ts {
	if id>>dim&1 == 1 {
		return ts{t: theirs.t + mine.t, s: theirs.t + mine.s}
	}
	return ts{t: mine.t + theirs.t, s: mine.s}
}

func TestAscendPrefix(t *testing.T) {
	// The hypercube prefix as a normal algorithm on both networks.
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(100)
		}
		init := make([]ts, N)
		for i, v := range in {
			init[i] = ts{t: v, s: v}
		}
		out, _, err := Ascend(machine.Config{}, topology.MustDualCube(n), init, prefixStep)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.ScanInclusive(in, monoid.Sum[int]())
		for i := range want {
			if out[i].s != want[i] {
				t.Fatalf("n=%d: prefix wrong at %d", n, i)
			}
		}
		q := 2*n - 1
		cube, stQ, err := CubeAscend(machine.Config{}, q, init, prefixStep)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if cube[i].s != want[i] {
				t.Fatalf("cube prefix wrong at %d", i)
			}
		}
		if stQ.Cycles != q {
			t.Errorf("cube comm %d, want %d", stQ.Cycles, q)
		}
	}
}

// TestAscendSharded runs the prefix sweep on D_7 and on Q_13 (8192 nodes),
// past the direct executor's sharding threshold, over three workers.
func TestAscendSharded(t *testing.T) {
	const n, q = 7, 13
	rng := rand.New(rand.NewSource(7))
	in := make([]int, 1<<q)
	init := make([]ts, len(in))
	for i := range in {
		in[i] = rng.Intn(100)
		init[i] = ts{t: in[i], s: in[i]}
	}
	want := seq.ScanInclusive(in, monoid.Sum[int]())
	cfg := machine.Config{Workers: 3}
	for _, tc := range []struct {
		name   string
		cycles int
		run    func() ([]ts, machine.Stats, error)
	}{
		{"D_7", CommSteps(n), func() ([]ts, machine.Stats, error) { return Ascend(cfg, topology.MustDualCube(n), init, prefixStep) }},
		{"Q_13", q, func() ([]ts, machine.Stats, error) { return CubeAscend(cfg, q, init, prefixStep) }},
	} {
		out, st, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if out[i].s != want[i] {
				t.Fatalf("%s: prefix wrong at %d", tc.name, i)
			}
		}
		if st.Cycles != tc.cycles || st.MaxOps != q {
			t.Errorf("%s: %d cycles and %d rounds, want %d and %d", tc.name, st.Cycles, st.MaxOps, tc.cycles, q)
		}
	}
}

func TestEmulationOverheadRatio(t *testing.T) {
	// The Section 7 claim: emulated comm / hypercube comm -> 3.
	for n := 2; n <= 8; n++ {
		q := 2*n - 1
		ratio := float64(CommSteps(n)) / float64(q)
		if ratio >= 3 {
			t.Errorf("n=%d: ratio %.2f should stay below 3", n, ratio)
		}
		if n >= 6 && ratio < 2.5 {
			t.Errorf("n=%d: ratio %.2f should approach 3", n, ratio)
		}
	}
}

func TestBadInputs(t *testing.T) {
	if _, _, err := Ascend(machine.Config{}, topology.MustDualCube(2), nil, sumStep); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := Ascend(machine.Config{}, topology.MustDualCube(2), make([]int, 3), sumStep); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := CubeAscend(machine.Config{}, -1, nil, sumStep); err == nil {
		t.Error("negative q should fail")
	}
	if _, _, err := CubeAscend(machine.Config{}, 2, make([]int, 3), sumStep); err == nil {
		t.Error("cube length mismatch should fail")
	}
}
