package collective

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

func TestAllToAllTranspose(t *testing.T) {
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = i*N + j
			}
		}
		out, st, err := AllToAll(machine.Config{}, topology.MustDualCube(n), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j := 0; j < N; j++ {
			for i := 0; i < N; i++ {
				if out[j][i] != in[i][j] {
					t.Fatalf("n=%d: out[%d][%d] = %d, want %d", n, j, i, out[j][i], in[i][j])
				}
			}
		}
		if st.Cycles != 2*n {
			t.Errorf("n=%d: comm rounds %d, want %d", n, st.Cycles, 2*n)
		}
	}
}

func TestAllToAllStrings(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	in := make([][]string, N)
	for i := range in {
		in[i] = make([]string, N)
		for j := range in[i] {
			in[i][j] = fmt.Sprintf("%d->%d", i, j)
		}
	}
	out, _, err := AllToAll(machine.Config{}, topology.MustDualCube(n), in)
	if err != nil {
		t.Fatal(err)
	}
	if out[5][2] != "2->5" || out[0][7] != "7->0" {
		t.Errorf("alltoall strings: %q %q", out[5][2], out[0][7])
	}
}

func TestAllToAllInvolution(t *testing.T) {
	// Transposing twice restores the original matrix.
	n := 2
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(4))
	in := make([][]int, N)
	for i := range in {
		in[i] = make([]int, N)
		for j := range in[i] {
			in[i][j] = rng.Int()
		}
	}
	once, _, err := AllToAll(machine.Config{}, topology.MustDualCube(n), in)
	if err != nil {
		t.Fatal(err)
	}
	twice, _, err := AllToAll(machine.Config{}, topology.MustDualCube(n), once)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		for j := range in[i] {
			if twice[i][j] != in[i][j] {
				t.Fatalf("double transpose broke [%d][%d]", i, j)
			}
		}
	}
}

func TestAllToAllBadArgs(t *testing.T) {
	if _, _, err := AllToAll(machine.Config{}, topology.MustDualCube(2), make([][]int, 3)); err == nil {
		t.Error("wrong row count should fail")
	}
	bad := make([][]int, 8)
	for i := range bad {
		bad[i] = make([]int, 8)
	}
	bad[3] = make([]int, 5)
	if _, _, err := AllToAll(machine.Config{}, topology.MustDualCube(2), bad); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, _, err := AllToAll[int](machine.Config{}, topology.MustDualCube(2), nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestAllToAllQuick(t *testing.T) {
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed)%3 + 1
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(seed))
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = rng.Intn(1 << 20)
			}
		}
		out, _, err := AllToAll(machine.Config{}, topology.MustDualCube(n), in)
		if err != nil {
			return false
		}
		for i := 0; i < N; i++ {
			for j := 0; j < N; j++ {
				if out[j][i] != in[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReduceScatter(t *testing.T) {
	for n := 1; n <= 3; n++ {
		N := 1 << (2*n - 1)
		in := make([][]int, N)
		for i := range in {
			in[i] = make([]int, N)
			for j := range in[i] {
				in[i][j] = i + j*100
			}
		}
		out, st, err := ReduceScatter(machine.Config{}, topology.MustDualCube(n), in, monoid.Sum[int]())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j := 0; j < N; j++ {
			want := N*(N-1)/2 + j*100*N
			if out[j] != want {
				t.Fatalf("n=%d: out[%d]=%d, want %d", n, j, out[j], want)
			}
		}
		if st.Cycles != 2*n {
			t.Errorf("n=%d: rounds %d", n, st.Cycles)
		}
	}
}

func TestReduceScatterNonCommutative(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	in := make([][]string, N)
	for i := range in {
		in[i] = make([]string, N)
		for j := range in[i] {
			in[i][j] = string(rune('a' + i)) // contribution tagged by source
		}
	}
	out, _, err := ReduceScatter(machine.Config{}, topology.MustDualCube(n), in, monoid.Concat())
	if err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if out[j] != "abcdefgh" {
			t.Fatalf("out[%d] = %q (source order broken)", j, out[j])
		}
	}
}

func TestReduceScatterBadArgs(t *testing.T) {
	if _, _, err := ReduceScatter(machine.Config{}, topology.MustDualCube(2), nil, monoid.Sum[int]()); err == nil {
		t.Error("empty input should fail")
	}
}
