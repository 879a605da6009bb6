package collective

import (
	"math/rand"
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

func TestAllToAllVTranspose(t *testing.T) {
	for n := 1; n <= 3; n++ {
		N := 1 << (2*n - 1)
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([][][]int, N)
		for i := range in {
			in[i] = make([][]int, N)
			for j := range in[i] {
				sz := rng.Intn(4) // empty slices included
				for s := 0; s < sz; s++ {
					in[i][j] = append(in[i][j], i*1000+j*10+s)
				}
			}
		}
		out, st, err := AllToAllV(machine.Config{}, topology.MustDualCube(n), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j := 0; j < N; j++ {
			for i := 0; i < N; i++ {
				if len(out[j][i]) != len(in[i][j]) {
					t.Fatalf("n=%d: bundle (%d->%d) size %d, want %d", n, i, j, len(out[j][i]), len(in[i][j]))
				}
				for s := range in[i][j] {
					if out[j][i][s] != in[i][j][s] {
						t.Fatalf("n=%d: bundle (%d->%d) corrupted", n, i, j)
					}
				}
			}
		}
		if st.Cycles != 2*n {
			t.Errorf("n=%d: rounds %d, want %d", n, st.Cycles, 2*n)
		}
	}
}

func TestAllToAllVHeavySkew(t *testing.T) {
	// One node sends everything; everyone else sends nothing.
	n := 2
	N := 1 << (2*n - 1)
	in := make([][][]int, N)
	for i := range in {
		in[i] = make([][]int, N)
	}
	for j := 0; j < N; j++ {
		in[3][j] = []int{j * 7, j*7 + 1}
	}
	out, _, err := AllToAllV(machine.Config{}, topology.MustDualCube(n), in)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < N; j++ {
		if len(out[j][3]) != 2 || out[j][3][0] != j*7 {
			t.Fatalf("skewed bundle to %d wrong: %v", j, out[j][3])
		}
		for i := 0; i < N; i++ {
			if i != 3 && len(out[j][i]) != 0 {
				t.Fatalf("unexpected bundle from %d", i)
			}
		}
	}
}

func TestAllToAllVBadArgs(t *testing.T) {
	if _, _, err := AllToAllV(machine.Config{}, topology.MustDualCube(2), make([][][]int, 3)); err == nil {
		t.Error("wrong row count should fail")
	}
	bad := make([][][]int, 8)
	for i := range bad {
		bad[i] = make([][]int, 8)
	}
	bad[2] = make([][]int, 4)
	if _, _, err := AllToAllV(machine.Config{}, topology.MustDualCube(2), bad); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, _, err := AllToAllV[int](machine.Config{}, topology.MustDualCube(2), nil); err == nil {
		t.Error("empty input should fail")
	}
}
