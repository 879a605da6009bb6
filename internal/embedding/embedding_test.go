package embedding

import (
	"fmt"
	"testing"
	"testing/quick"

	"dualcube/internal/topology"
)

func TestGrayCode(t *testing.T) {
	for m := 0; m <= 10; m++ {
		g := GrayCode(m)
		if len(g) != 1<<m {
			t.Fatalf("GrayCode(%d) length %d", m, len(g))
		}
		seen := make([]bool, len(g))
		for i, v := range g {
			if v < 0 || v >= len(g) || seen[v] {
				t.Fatalf("GrayCode(%d): value %d repeated/out of range", m, v)
			}
			seen[v] = true
			if m >= 1 {
				next := g[(i+1)%len(g)]
				if topology.Popcount(v^next) != 1 {
					t.Fatalf("GrayCode(%d): %d -> %d not a single-bit step", m, v, next)
				}
			}
		}
	}
}

func TestHypercubePathExhaustive(t *testing.T) {
	// Every valid endpoint pair in Q_1..Q_5 gets a verified Hamiltonian path.
	for m := 1; m <= 5; m++ {
		h := topology.MustHypercube(m)
		for a := 0; a < h.Nodes(); a++ {
			for b := 0; b < h.Nodes(); b++ {
				pathValid := parity(a) != parity(b)
				path, err := HypercubePath(m, a, b)
				if !pathValid {
					if err == nil {
						t.Fatalf("Q_%d: same-parity pair (%d,%d) should fail", m, a, b)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Q_%d (%d,%d): %v", m, a, b, err)
				}
				if path[0] != a || path[len(path)-1] != b {
					t.Fatalf("Q_%d (%d,%d): endpoints wrong", m, a, b)
				}
				if err := verifyPath(h, path); err != nil {
					t.Fatalf("Q_%d (%d,%d): %v", m, a, b, err)
				}
			}
		}
	}
}

func TestHypercubePathLargerQuick(t *testing.T) {
	f := func(mSeed uint8, aSeed, bSeed uint16) bool {
		m := int(mSeed)%6 + 3 // 3..8
		N := 1 << m
		a := int(aSeed) % N
		b := int(bSeed) % N
		if parity(a) == parity(b) {
			b ^= 1
		}
		if a == b {
			return true
		}
		path, err := HypercubePath(m, a, b)
		if err != nil {
			return false
		}
		return verifyPath(topology.MustHypercube(m), path) == nil &&
			path[0] == a && path[len(path)-1] == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHypercubePathBadArgs(t *testing.T) {
	if _, err := HypercubePath(0, 0, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := HypercubePath(3, -1, 2); err == nil {
		t.Error("negative endpoint should fail")
	}
	if _, err := HypercubePath(3, 0, 8); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	if _, err := HypercubePath(3, 0, 3); err == nil {
		t.Error("same-parity endpoints should fail")
	}
}

func TestDualCubeHamiltonianCycle(t *testing.T) {
	for n := 2; n <= 6; n++ {
		d := topology.MustDualCube(n)
		cycle, err := DualCubeHamiltonianCycle(n)
		if err != nil {
			t.Fatalf("D_%d: %v", n, err)
		}
		if err := VerifyCycle(d, cycle); err != nil {
			t.Fatalf("D_%d: %v", n, err)
		}
	}
}

func TestDualCubeHamiltonianCycleD1Fails(t *testing.T) {
	if _, err := DualCubeHamiltonianCycle(1); err == nil {
		t.Error("D_1 has no Hamiltonian cycle")
	}
	if _, err := DualCubeHamiltonianCycle(0); err == nil {
		t.Error("order 0 should fail")
	}
}

func TestVerifyHelpers(t *testing.T) {
	h := topology.MustHypercube(2)
	if err := VerifyCycle(h, []int{0, 1, 3, 2}); err != nil {
		t.Errorf("valid 4-cycle rejected: %v", err)
	}
	if err := VerifyCycle(h, []int{0, 1, 2, 3}); err == nil {
		t.Error("non-cycle accepted (1-2 is not an edge)")
	}
	if err := VerifyCycle(h, []int{0, 1, 3}); err == nil {
		t.Error("short cycle accepted")
	}
	if err := VerifyCycle(h, []int{0, 1, 3, 3}); err == nil {
		t.Error("repeated node accepted")
	}
	if err := verifyPath(h, []int{0, 1, 3, 2}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := verifyPath(h, []int{2, 0, 1, 3}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := verifyPath(h, []int{0, 3, 1, 2}); err == nil {
		t.Error("non-path accepted")
	}
}

func TestCompressExpandRoundTrip(t *testing.T) {
	f := func(v uint16, dSeed uint8) bool {
		d := int(dSeed) % 12
		x := int(v) & (1<<13 - 1)
		bit := x >> d & 1
		c := compress(x, d)
		back := expand([]int{c}, d, bit)[0]
		return back == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// verifyPath checks that path is a Hamiltonian path of t (every node once,
// consecutive pairs adjacent, ends not required to close).
func verifyPath(t topology.Topology, path []topology.NodeID) error {
	if len(path) != t.Nodes() {
		return fmt.Errorf("embedding: path length %d != %d nodes", len(path), t.Nodes())
	}
	seen := make([]bool, t.Nodes())
	for _, u := range path {
		if u < 0 || u >= t.Nodes() || seen[u] {
			return fmt.Errorf("embedding: node %d repeated or out of range", u)
		}
		seen[u] = true
	}
	for i := 1; i < len(path); i++ {
		if !t.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("embedding: consecutive pair (%d, %d) is not an edge", path[i-1], path[i])
		}
	}
	return nil
}
