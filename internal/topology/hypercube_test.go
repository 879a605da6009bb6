package topology

import (
	"testing"
	"testing/quick"
)

func TestHypercubeBasics(t *testing.T) {
	for q := 0; q <= 8; q++ {
		h := MustHypercube(q)
		if h.Nodes() != 1<<q {
			t.Fatalf("Q_%d nodes = %d", q, h.Nodes())
		}
		if deg, ok := IsRegular(h); !ok || deg != q {
			t.Fatalf("Q_%d degree = %d regular=%v", q, deg, ok)
		}
		if got, want := EdgeCount(h), q*(1<<q)/2; got != want {
			t.Fatalf("Q_%d edges = %d, want %d", q, got, want)
		}
		if err := checkSymmetric(h); err != nil {
			t.Fatal(err)
		}
		if !isConnected(h) {
			t.Fatalf("Q_%d disconnected", q)
		}
	}
	if _, err := NewHypercube(-1); err == nil {
		t.Error("NewHypercube(-1) should fail")
	}
	if _, err := NewHypercube(MaxHypercubeDim + 1); err == nil {
		t.Error("oversized hypercube should fail")
	}
}

func TestHypercubeDistanceDiameter(t *testing.T) {
	for q := 0; q <= 6; q++ {
		h := MustHypercube(q)
		if got := DiameterBFS(h); got != q {
			t.Fatalf("Q_%d diameter = %d", q, got)
		}
		for u := 0; u < h.Nodes(); u++ {
			dist := BFSDistances(h, u)
			for v := 0; v < h.Nodes(); v++ {
				if h.Distance(u, v) != dist[v] {
					t.Fatalf("Q_%d: Distance(%d,%d)", q, u, v)
				}
			}
		}
	}
}

func TestHypercubeRoute(t *testing.T) {
	h := MustHypercube(5)
	for u := 0; u < h.Nodes(); u++ {
		for v := 0; v < h.Nodes(); v++ {
			path := h.Route(u, v)
			if path[0] != u || path[len(path)-1] != v || len(path)-1 != h.Distance(u, v) {
				t.Fatalf("Route(%d,%d) = %v", u, v, path)
			}
			for i := 1; i < len(path); i++ {
				if !h.HasEdge(path[i-1], path[i]) {
					t.Fatalf("Route(%d,%d) non-edge hop", u, v)
				}
			}
		}
	}
}

func TestMustHypercubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHypercube(-1) should panic")
		}
	}()
	MustHypercube(-1)
}

func TestHypercubeQuick(t *testing.T) {
	f := func(qSeed uint8, a, b uint16) bool {
		q := int(qSeed)%9 + 1
		h := MustHypercube(q)
		u := int(a) % h.Nodes()
		v := int(b) % h.Nodes()
		// Distance is a metric consistent with adjacency.
		if h.Distance(u, v) != h.Distance(v, u) {
			return false
		}
		if (h.Distance(u, v) == 1) != h.HasEdge(u, v) {
			return false
		}
		return h.Distance(u, v) <= q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
