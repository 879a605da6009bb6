package topology

import (
	"math/rand"
	"testing"
)

func TestNewDualCubeBounds(t *testing.T) {
	if _, err := NewDualCube(0); err == nil {
		t.Error("NewDualCube(0) should fail")
	}
	if _, err := NewDualCube(-3); err == nil {
		t.Error("NewDualCube(-3) should fail")
	}
	if _, err := NewDualCube(MaxDualCubeOrder + 1); err == nil {
		t.Error("NewDualCube(MaxDualCubeOrder+1) should fail")
	}
	for n := 1; n <= 6; n++ {
		d, err := NewDualCube(n)
		if err != nil {
			t.Fatalf("NewDualCube(%d): %v", n, err)
		}
		if got, want := d.Nodes(), 1<<(2*n-1); got != want {
			t.Errorf("D_%d Nodes = %d, want %d", n, got, want)
		}
	}
}

func TestMustDualCubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDualCube(0) should panic")
		}
	}()
	MustDualCube(0)
}

func TestDualCubeBasicCounts(t *testing.T) {
	for n := 1; n <= 6; n++ {
		d := MustDualCube(n)
		if deg, ok := IsRegular(d); !ok || deg != n {
			t.Errorf("D_%d: regular=%v degree=%d, want regular degree %d", n, ok, deg, n)
		}
		// Every node has n links, so |E| = N*n/2.
		if got, want := EdgeCount(d), d.Nodes()*n/2; got != want {
			t.Errorf("D_%d: edges=%d, want %d", n, got, want)
		}
		if err := checkSymmetric(d); err != nil {
			t.Errorf("D_%d: %v", n, err)
		}
		if !isConnected(d) {
			t.Errorf("D_%d: not connected", n)
		}
	}
}

func TestDualCubeAddressing(t *testing.T) {
	for n := 1; n <= 6; n++ {
		d := MustDualCube(n)
		for u := 0; u < d.Nodes(); u++ {
			c, cl, lo := d.Class(u), d.ClusterID(u), d.LocalID(u)
			if c != 0 && c != 1 {
				t.Fatalf("D_%d node %d: class=%d", n, u, c)
			}
			if back := d.NodeAt(c, cl, lo); back != u {
				t.Fatalf("D_%d: NodeAt(Class,Cluster,Local) of %d = %d", n, u, back)
			}
		}
	}
}

func TestDualCubeClusterStructure(t *testing.T) {
	// Each cluster must induce an (n-1)-cube: 2^(n-1) nodes, each pair
	// adjacent iff local IDs differ in one bit; and no edges between
	// clusters of the same class.
	for n := 2; n <= 5; n++ {
		d := MustDualCube(n)
		for class := 0; class <= 1; class++ {
			for cl := 0; cl < d.ClustersPerClass(); cl++ {
				members := d.ClusterMembers(class, cl)
				if len(members) != d.ClusterSize() {
					t.Fatalf("D_%d cluster (%d,%d): %d members", n, class, cl, len(members))
				}
				for i, u := range members {
					if d.Class(u) != class || d.ClusterID(u) != cl || d.LocalID(u) != i {
						t.Fatalf("D_%d: member %d of cluster (%d,%d) misaddressed", n, u, class, cl)
					}
					for j, v := range members {
						want := Popcount(i^j) == 1
						if got := d.HasEdge(u, v); got != want {
							t.Fatalf("D_%d: intra-cluster edge (%d,%d) = %v, want %v", n, u, v, got, want)
						}
					}
				}
			}
		}
		// No edge between distinct clusters of the same class.
		for u := 0; u < d.Nodes(); u++ {
			for _, v := range d.Neighbors(u) {
				if d.Class(u) == d.Class(v) && d.ClusterID(u) != d.ClusterID(v) {
					t.Fatalf("D_%d: same-class inter-cluster edge (%d,%d)", n, u, v)
				}
			}
		}
	}
}

func TestDualCubeCrossEdges(t *testing.T) {
	for n := 1; n <= 5; n++ {
		d := MustDualCube(n)
		for u := 0; u < d.Nodes(); u++ {
			v := d.CrossNeighbor(u)
			if d.CrossNeighbor(v) != u {
				t.Fatalf("D_%d: cross-edge not an involution at %d", n, u)
			}
			if d.Class(v) == d.Class(u) {
				t.Fatalf("D_%d: cross neighbor of %d has same class", n, u)
			}
			if u^v != 1<<(2*n-2) {
				t.Fatalf("D_%d: cross pair (%d,%d) differ in more than the class bit", n, u, v)
			}
			if !d.HasEdge(u, v) {
				t.Fatalf("D_%d: missing cross-edge (%d,%d)", n, u, v)
			}
			// Exactly one cross neighbor: count neighbors of the other class.
			crosses := 0
			for _, w := range d.Neighbors(u) {
				if d.Class(w) != d.Class(u) {
					crosses++
				}
			}
			if crosses != 1 {
				t.Fatalf("D_%d: node %d has %d cross edges", n, u, crosses)
			}
		}
	}
}

func TestDualCubeDistanceAgainstBFS(t *testing.T) {
	for n := 1; n <= 4; n++ {
		d := MustDualCube(n)
		for u := 0; u < d.Nodes(); u++ {
			dist := BFSDistances(d, u)
			for v := 0; v < d.Nodes(); v++ {
				if got, want := d.Distance(u, v), dist[v]; got != want {
					t.Fatalf("D_%d: Distance(%d,%d)=%d, BFS=%d", n, u, v, got, want)
				}
			}
		}
	}
}

func TestDualCubeDistanceSampledD5(t *testing.T) {
	d := MustDualCube(5)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		u := rng.Intn(d.Nodes())
		dist := BFSDistances(d, u)
		for v := 0; v < d.Nodes(); v++ {
			if got, want := d.Distance(u, v), dist[v]; got != want {
				t.Fatalf("D_5: Distance(%d,%d)=%d, BFS=%d", u, v, got, want)
			}
		}
	}
}

func TestDualCubeDiameter(t *testing.T) {
	// E2: diameter of D_n is 2n — hypercube of the same size plus one.
	for n := 1; n <= 4; n++ {
		d := MustDualCube(n)
		got := DiameterBFS(d)
		if got != d.Diameter() {
			t.Errorf("D_%d: BFS diameter %d != formula %d", n, got, d.Diameter())
		}
		if n >= 2 && got != 2*n {
			t.Errorf("D_%d: diameter %d, want %d", n, got, 2*n)
		}
		q := MustHypercube(2*n - 1)
		if n >= 2 && got != q.Diameter()+1 {
			t.Errorf("D_%d: diameter %d, want hypercube %s diameter+1 = %d", n, got, q.Name(), q.Diameter()+1)
		}
	}
}

func TestDualCubeRoute(t *testing.T) {
	for n := 1; n <= 4; n++ {
		d := MustDualCube(n)
		rng := rand.New(rand.NewSource(int64(n)))
		pairs := d.Nodes() * d.Nodes()
		check := func(u, v int) {
			path := d.Route(u, v)
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("D_%d: Route(%d,%d) endpoints wrong: %v", n, u, v, path)
			}
			if len(path)-1 != d.Distance(u, v) {
				t.Fatalf("D_%d: Route(%d,%d) length %d != distance %d", n, u, v, len(path)-1, d.Distance(u, v))
			}
			for i := 1; i < len(path); i++ {
				if !d.HasEdge(path[i-1], path[i]) {
					t.Fatalf("D_%d: Route(%d,%d) uses non-edge (%d,%d)", n, u, v, path[i-1], path[i])
				}
			}
		}
		if pairs <= 1<<14 {
			for u := 0; u < d.Nodes(); u++ {
				for v := 0; v < d.Nodes(); v++ {
					check(u, v)
				}
			}
		} else {
			for trial := 0; trial < 5000; trial++ {
				check(rng.Intn(d.Nodes()), rng.Intn(d.Nodes()))
			}
		}
	}
}

func TestDualCubeDataIndex(t *testing.T) {
	for n := 1; n <= 6; n++ {
		d := MustDualCube(n)
		seen := make([]bool, d.Nodes())
		for u := 0; u < d.Nodes(); u++ {
			idx := d.DataIndex(u)
			if idx < 0 || idx >= d.Nodes() {
				t.Fatalf("D_%d: DataIndex(%d)=%d out of range", n, u, idx)
			}
			if seen[idx] {
				t.Fatalf("D_%d: DataIndex not a bijection at %d", n, idx)
			}
			seen[idx] = true
			if d.NodeAtDataIndex(idx) != u {
				t.Fatalf("D_%d: NodeAtDataIndex(DataIndex(%d)) != %d", n, u, u)
			}
			if d.DataIndex(idx) != u {
				t.Fatalf("D_%d: DataIndex not an involution at %d", n, u)
			}
		}
	}
}

func TestDualCubeBlockLayoutConsecutive(t *testing.T) {
	// The defining property of the layout (Section 3): the element indices
	// held inside any cluster form a consecutive block, ordered by local ID,
	// and blocks are ordered class-major then cluster.
	for n := 1; n <= 5; n++ {
		d := MustDualCube(n)
		for class := 0; class <= 1; class++ {
			for cl := 0; cl < d.ClustersPerClass(); cl++ {
				members := d.ClusterMembers(class, cl)
				block := d.BlockOf(members[0])
				if want := class<<(n-1) | cl; block != want {
					t.Fatalf("D_%d: BlockOf cluster (%d,%d) = %d, want %d", n, class, cl, block, want)
				}
				base := block * d.ClusterSize()
				for local, u := range members {
					if got := d.DataIndex(u); got != base+local {
						t.Fatalf("D_%d: DataIndex(%d)=%d, want %d", n, u, got, base+local)
					}
				}
			}
		}
	}
}

func TestHasEdgeRejectsInvalid(t *testing.T) {
	d := MustDualCube(3)
	if d.HasEdge(-1, 0) || d.HasEdge(0, d.Nodes()) || d.HasEdge(5, 5) {
		t.Error("HasEdge accepted invalid arguments")
	}
	h := MustHypercube(3)
	if h.HasEdge(-1, 0) || h.HasEdge(0, h.Nodes()) {
		t.Error("hypercube HasEdge accepted invalid arguments")
	}
}

func TestDualCubeD1IsK2(t *testing.T) {
	d := MustDualCube(1)
	if d.Nodes() != 2 {
		t.Fatalf("D_1 nodes = %d", d.Nodes())
	}
	if !d.HasEdge(0, 1) || !d.HasEdge(1, 0) {
		t.Error("D_1 should be K_2")
	}
	if d.Diameter() != 1 || DiameterBFS(d) != 1 {
		t.Error("D_1 diameter should be 1")
	}
	if d.ClusterSize() != 1 {
		t.Errorf("D_1 cluster size = %d", d.ClusterSize())
	}
}

// TestFigure1D2Structure pins down the structure of D_2 shown in the
// paper's Figure 1: 8 nodes, two classes of two 1-dimensional clusters
// (i.e. 2-node clusters), four cross-edges, diameter 4.
func TestFigure1D2Structure(t *testing.T) {
	d := MustDualCube(2)
	if d.Nodes() != 8 {
		t.Fatalf("D_2 nodes = %d, want 8", d.Nodes())
	}
	if d.ClustersPerClass() != 2 || d.ClusterSize() != 2 {
		t.Fatalf("D_2 clusters: %d per class of size %d", d.ClustersPerClass(), d.ClusterSize())
	}
	// Class 0 nodes are 0..3, class 1 nodes are 4..7.
	for u := 0; u < 4; u++ {
		if d.Class(u) != 0 || d.Class(u+4) != 1 {
			t.Fatalf("D_2 class split wrong at %d", u)
		}
	}
	wantEdges := [][2]int{
		{0, 1}, {2, 3}, // class-0 clusters {0,1} and {2,3}
		{4, 6}, {5, 7}, // class-1 clusters {4,6} and {5,7} (node ID is the middle bit)
		{0, 4}, {1, 5}, {2, 6}, {3, 7}, // cross-edges
	}
	count := 0
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			has := d.HasEdge(u, v)
			want := false
			for _, e := range wantEdges {
				if e[0] == u && e[1] == v {
					want = true
				}
			}
			if has != want {
				t.Errorf("D_2 edge (%d,%d) = %v, want %v", u, v, has, want)
			}
			if has {
				count++
			}
		}
	}
	if count != 8 {
		t.Errorf("D_2 has %d edges, want 8", count)
	}
	if DiameterBFS(d) != 4 {
		t.Errorf("D_2 diameter = %d, want 4", DiameterBFS(d))
	}
}

// TestFigure2D3Structure checks the headline facts of Figure 2: D_3 has 32
// nodes, 4 clusters per class, each cluster a 2-cube (4-cycle).
func TestFigure2D3Structure(t *testing.T) {
	d := MustDualCube(3)
	if d.Nodes() != 32 || d.ClustersPerClass() != 4 || d.ClusterSize() != 4 {
		t.Fatalf("D_3 shape wrong: N=%d clusters=%d size=%d", d.Nodes(), d.ClustersPerClass(), d.ClusterSize())
	}
	// Each cluster induces a 4-cycle (Q_2).
	for class := 0; class <= 1; class++ {
		for cl := 0; cl < 4; cl++ {
			members := d.ClusterMembers(class, cl)
			deg := 0
			for _, u := range members {
				for _, v := range members {
					if d.HasEdge(u, v) {
						deg++
					}
				}
			}
			if deg != 8 { // 4 undirected edges, counted twice
				t.Errorf("D_3 cluster (%d,%d): %d directed intra edges, want 8", class, cl, deg)
			}
		}
	}
	if DiameterBFS(d) != 6 {
		t.Errorf("D_3 diameter = %d, want 6", DiameterBFS(d))
	}
}

func TestDualCubeDistanceMetricProperties(t *testing.T) {
	// The closed-form distance is a metric: symmetry, identity, triangle
	// inequality, and bounded by the diameter.
	for _, n := range []int{2, 3, 4} {
		d := MustDualCube(n)
		rng := rand.New(rand.NewSource(int64(n * 31)))
		for trial := 0; trial < 4000; trial++ {
			u := rng.Intn(d.Nodes())
			v := rng.Intn(d.Nodes())
			w := rng.Intn(d.Nodes())
			duv, dvw, duw := d.Distance(u, v), d.Distance(v, w), d.Distance(u, w)
			if duv != d.Distance(v, u) {
				t.Fatalf("D_%d: asymmetric distance (%d,%d)", n, u, v)
			}
			if (duv == 0) != (u == v) {
				t.Fatalf("D_%d: identity broken (%d,%d)", n, u, v)
			}
			if duw > duv+dvw {
				t.Fatalf("D_%d: triangle inequality broken (%d,%d,%d): %d > %d+%d", n, u, v, w, duw, duv, dvw)
			}
			if duv > d.Diameter() {
				t.Fatalf("D_%d: distance %d exceeds diameter %d", n, duv, d.Diameter())
			}
		}
	}
}
