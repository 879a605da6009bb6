package collective

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

func TestScatterAllRoots(t *testing.T) {
	for n := 1; n <= 3; n++ {
		N := 1 << (2*n - 1)
		d, _ := topology.Shared(n)
		in := make([]int, N)
		for i := range in {
			in[i] = i*100 + 1
		}
		for root := 0; root < N; root++ {
			got, st, err := Scatter(machine.Config{}, topology.MustDualCube(n), root, in)
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			for u := 0; u < N; u++ {
				if want := in[d.DataIndex(u)]; got[u] != want {
					t.Fatalf("n=%d root=%d: node %d got %d, want %d", n, root, u, got[u], want)
				}
			}
			if st.Cycles != 2*n {
				t.Errorf("n=%d root=%d: comm %d, want %d", n, root, st.Cycles, 2*n)
			}
		}
	}
}

func TestScatterLarger(t *testing.T) {
	n := 5
	N := 1 << (2*n - 1)
	d, _ := topology.Shared(n)
	rng := rand.New(rand.NewSource(1))
	in := make([]int, N)
	for i := range in {
		in[i] = rng.Int()
	}
	got, st, err := Scatter(machine.Config{}, topology.MustDualCube(n), 77, in)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < N; u++ {
		if got[u] != in[d.DataIndex(u)] {
			t.Fatalf("node %d wrong", u)
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("comm %d, want %d", st.Cycles, 2*n)
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	// Gather(machine.Config{}, Scatter(machine.Config{}, x)) == x from any pair of roots.
	n := 2
	N := 1 << (2*n - 1)
	in := []int{10, 20, 30, 40, 50, 60, 70, 80}
	d, _ := topology.Shared(n)
	scattered, _, err := Scatter(machine.Config{}, topology.MustDualCube(n), 3, in)
	if err != nil {
		t.Fatal(err)
	}
	// Convert node-indexed values back to element order for Gather's input
	// convention (in[DataIndex(u)] is node u's value).
	elem := make([]int, N)
	for u := 0; u < N; u++ {
		elem[d.DataIndex(u)] = scattered[u]
	}
	back, _, err := Gather(machine.Config{}, topology.MustDualCube(n), 6, elem)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if back[i] != in[i] {
			t.Fatalf("round trip broke element %d", i)
		}
	}
}

func TestScatterBadArgs(t *testing.T) {
	if _, _, err := Scatter(machine.Config{}, topology.MustDualCube(2), 0, make([]int, 3)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := Scatter(machine.Config{}, topology.MustDualCube(2), 64, make([]int, 8)); err == nil {
		t.Error("bad root should fail")
	}
	if _, _, err := Scatter[int](machine.Config{}, topology.MustDualCube(2), 0, nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestAllGather(t *testing.T) {
	for n := 1; n <= 3; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		for i := range in {
			in[i] = i + 1000
		}
		got, st, err := AllGather(machine.Config{}, topology.MustDualCube(n), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for u := 0; u < N; u++ {
			if len(got[u]) != N {
				t.Fatalf("n=%d: node %d has %d elements", n, u, len(got[u]))
			}
			for i := range in {
				if got[u][i] != in[i] {
					t.Fatalf("n=%d: node %d element %d = %d", n, u, i, got[u][i])
				}
			}
		}
		if st.Cycles != 2*n {
			t.Errorf("n=%d: comm %d, want %d", n, st.Cycles, 2*n)
		}
	}
}

func TestAllGatherBadArgs(t *testing.T) {
	if _, _, err := AllGather(machine.Config{}, topology.MustDualCube(2), make([]int, 5)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := AllGather[int](machine.Config{}, topology.MustDualCube(2), nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestScatterSplitIsRevContiguous(t *testing.T) {
	// The scatter fan-out's correctness rests on the arena-order theorem:
	// under the bit-reversed layout, the set of destinations a holder keeps
	// at a phase-4 step — dest-local bit i equal to its own — is always one
	// contiguous half of its current run. Check the theorem directly: for
	// every cluster-row run and every bit, the kept slots form the first or
	// second half.
	for n := 2; n <= 3; n++ {
		N := 1 << (2*n - 1)
		d, _ := topology.Shared(n)
		m := d.ClusterDim()
		pos := layoutFor(d).posOf
		for u := 0; u < N; u++ {
			class, cluster, local := d.Class(u), d.ClusterID(u), d.LocalID(u)
			for i := 0; i < m; i++ {
				// The run at step i: cluster-mates matching u's local on bits
				// below i. It must be contiguous, and the sub-run matching at
				// bit i too must be the half selected by u's bit.
				runLo, runHi, keepLo, keepHi := N, -1, N, -1
				low := (1 << i) - 1
				for v := 0; v < N; v++ {
					if d.Class(v) != class || d.ClusterID(v) != cluster ||
						d.LocalID(v)&low != local&low {
						continue
					}
					p := int(pos[v])
					runLo, runHi = min(runLo, p), max(runHi, p)
					if d.LocalID(v)&(1<<i) == local&(1<<i) {
						keepLo, keepHi = min(keepLo, p), max(keepHi, p)
					}
				}
				runLen := 1 << (m - i)
				if runHi-runLo+1 != runLen || keepHi-keepLo+1 != runLen/2 {
					t.Fatalf("n=%d u=%d bit %d: run [%d,%d] keep [%d,%d] not a contiguous halving",
						n, u, i, runLo, runHi, keepLo, keepHi)
				}
				wantLo := runLo
				if local&(1<<i) != 0 {
					wantLo = runLo + runLen/2
				}
				if keepLo != wantLo {
					t.Fatalf("n=%d u=%d bit %d: kept half starts at %d, want %d (bit selects the half)",
						n, u, i, keepLo, wantLo)
				}
			}
		}
	}
}

func TestScatterQuick(t *testing.T) {
	f := func(nSeed, rootSeed uint8, seed int64) bool {
		n := int(nSeed)%3 + 1
		N := 1 << (2*n - 1)
		root := int(rootSeed) % N
		d, _ := topology.Shared(n)
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(1 << 20)
		}
		got, _, err := Scatter(machine.Config{}, topology.MustDualCube(n), root, in)
		if err != nil {
			return false
		}
		for u := 0; u < N; u++ {
			if got[u] != in[d.DataIndex(u)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
