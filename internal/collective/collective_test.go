package collective

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

func TestBroadcastAllRoots(t *testing.T) {
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		for root := 0; root < N; root++ {
			got, st, err := Broadcast(machine.Config{}, topology.MustDualCube(n), root, 1000+root)
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			for u, v := range got {
				if v != 1000+root {
					t.Fatalf("n=%d root=%d: node %d got %d", n, root, u, v)
				}
			}
			if st.Cycles != 2*n {
				t.Errorf("n=%d root=%d: comm %d, want %d (diameter)", n, root, st.Cycles, 2*n)
			}
		}
	}
}

func TestBroadcastLargerNetwork(t *testing.T) {
	n := 6
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		root := rng.Intn(N)
		got, st, err := Broadcast(machine.Config{}, topology.MustDualCube(n), root, "payload")
		if err != nil {
			t.Fatal(err)
		}
		for u, v := range got {
			if v != "payload" {
				t.Fatalf("node %d missed broadcast", u)
			}
		}
		if st.Cycles != 2*n {
			t.Errorf("comm %d, want %d", st.Cycles, 2*n)
		}
	}
}

func TestBroadcastBadArgs(t *testing.T) {
	if _, _, err := Broadcast(machine.Config{}, topology.MustDualCube(2), -1, 1); err == nil {
		t.Error("negative root should fail")
	}
	if _, _, err := Broadcast(machine.Config{}, topology.MustDualCube(2), 8, 1); err == nil {
		t.Error("out-of-range root should fail")
	}
}

func TestAllReduceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 5; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		total := 0
		for i := range in {
			in[i] = rng.Intn(100) - 50
			total += in[i]
		}
		got, st, err := AllReduce(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int]())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for u, v := range got {
			if v != total {
				t.Fatalf("n=%d: node %d has %d, want %d", n, u, v, total)
			}
		}
		if st.Cycles != 2*n {
			t.Errorf("n=%d: comm %d, want %d", n, st.Cycles, 2*n)
		}
	}
}

func TestAllReduceNonCommutativeOrder(t *testing.T) {
	// Concatenation all-reduce must produce the in-order concatenation of
	// the element sequence on every node.
	for n := 1; n <= 3; n++ {
		N := 1 << (2*n - 1)
		in := make([]string, N)
		for i := range in {
			in[i] = string(rune('a' + i%26))
		}
		want := seq.Reduce(in, monoid.Concat())
		got, _, err := AllReduce(machine.Config{}, topology.MustDualCube(n), in, monoid.Concat())
		if err != nil {
			t.Fatal(err)
		}
		for u, v := range got {
			if v != want {
				t.Fatalf("n=%d node %d: %q, want %q", n, u, v, want)
			}
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	n := 3
	N := 1 << (2*n - 1)
	in := make([]int, N)
	for i := range in {
		in[i] = (i * 7) % N
	}
	got, _, err := AllReduce(machine.Config{}, topology.MustDualCube(n), in, monoid.MaxInt())
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Reduce(in, monoid.MaxInt())
	for _, v := range got {
		if v != want {
			t.Fatalf("max allreduce: %d, want %d", v, want)
		}
	}
}

func TestAllReduceBadArgs(t *testing.T) {
	if _, _, err := AllReduce(machine.Config{}, topology.MustDualCube(2), make([]int, 3), monoid.Sum[int]()); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := AllReduce(machine.Config{}, topology.MustDualCube(2), nil, monoid.Sum[int]()); err == nil {
		t.Error("empty input should fail")
	}
}

func TestBarrier(t *testing.T) {
	for n := 1; n <= 4; n++ {
		st, err := Barrier(machine.Config{}, topology.MustDualCube(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.Cycles != 2*n {
			t.Errorf("n=%d: barrier comm %d, want %d", n, st.Cycles, 2*n)
		}
	}
}

func TestGatherAllRoots(t *testing.T) {
	for n := 1; n <= 3; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		for i := range in {
			in[i] = i*10 + 7
		}
		for root := 0; root < N; root++ {
			got, st, err := Gather(machine.Config{}, topology.MustDualCube(n), root, in)
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("n=%d root=%d: element %d = %d, want %d", n, root, i, got[i], in[i])
				}
			}
			if st.Cycles != 2*n {
				t.Errorf("n=%d root=%d: comm %d, want %d", n, root, st.Cycles, 2*n)
			}
		}
	}
}

func TestGatherLarger(t *testing.T) {
	n := 5
	N := 1 << (2*n - 1)
	in := make([]int, N)
	rng := rand.New(rand.NewSource(3))
	for i := range in {
		in[i] = rng.Int()
	}
	got, st, err := Gather(machine.Config{}, topology.MustDualCube(n), 13, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("element %d mismatched", i)
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("comm %d, want %d", st.Cycles, 2*n)
	}
}

func TestGatherBadArgs(t *testing.T) {
	if _, _, err := Gather(machine.Config{}, topology.MustDualCube(2), 0, make([]int, 3)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := Gather(machine.Config{}, topology.MustDualCube(2), -2, make([]int, 8)); err == nil {
		t.Error("bad root should fail")
	}
	if _, _, err := Gather[int](machine.Config{}, topology.MustDualCube(2), 0, nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestPlaneLayout(t *testing.T) {
	// The gather/scatter arena order must be a permutation of the slots with
	// the class halves contiguous: class-0 nodes fill [0, N/2), class-1
	// nodes [N/2, N) — phase 1 of scatter (and phase 4 of gather) splits
	// (merges) the arena exactly at that boundary.
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		d, err := topology.Shared(n)
		if err != nil {
			t.Fatal(err)
		}
		pos := layoutFor(d).posOf
		seen := make([]bool, N)
		for u := 0; u < N; u++ {
			p := int(pos[u])
			if p < 0 || p >= N || seen[p] {
				t.Fatalf("n=%d: pos[%d]=%d is out of range or duplicated", n, u, p)
			}
			seen[p] = true
			if half := N / 2; (p >= half) != (d.Class(u) == 1) {
				t.Fatalf("n=%d: node %d (class %d) at slot %d crosses the class boundary", n, u, d.Class(u), p)
			}
		}
	}
}

func TestCollectiveQuick(t *testing.T) {
	f := func(nSeed, rootSeed uint8, seed int64) bool {
		n := int(nSeed)%3 + 1
		N := 1 << (2*n - 1)
		root := int(rootSeed) % N
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(1000)
		}
		all, _, err := AllReduce(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int]())
		if err != nil {
			return false
		}
		want := seq.Reduce(in, monoid.Sum[int]())
		if all[root] != want {
			return false
		}
		g, _, err := Gather(machine.Config{}, topology.MustDualCube(n), root, in)
		if err != nil {
			return false
		}
		for i := range in {
			if g[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
