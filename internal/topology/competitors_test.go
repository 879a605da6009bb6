package topology

import "testing"

// mustButterfly is NewButterfly but panics on an invalid order.
func mustButterfly(k int) *Butterfly {
	b, err := NewButterfly(k)
	if err != nil {
		panic(err)
	}
	return b
}

// mustCCC is NewCCC but panics on an invalid order.
func mustCCC(k int) *CCC {
	c, err := NewCCC(k)
	if err != nil {
		panic(err)
	}
	return c
}

// mustDeBruijn is NewDeBruijn but panics on an invalid order.
func mustDeBruijn(q int) *DeBruijn {
	d, err := NewDeBruijn(q)
	if err != nil {
		panic(err)
	}
	return d
}

// mustShuffleExchange is NewShuffleExchange but panics on an invalid order.
func mustShuffleExchange(q int) *ShuffleExchange {
	s, err := NewShuffleExchange(q)
	if err != nil {
		panic(err)
	}
	return s
}

func TestCCCBasics(t *testing.T) {
	for k := 3; k <= 6; k++ {
		c := mustCCC(k)
		if c.Nodes() != k<<k {
			t.Fatalf("CCC_%d nodes = %d", k, c.Nodes())
		}
		if deg, ok := IsRegular(c); !ok || deg != 3 {
			t.Fatalf("CCC_%d degree=%d regular=%v", k, deg, ok)
		}
		if err := checkSymmetric(c); err != nil {
			t.Fatal(err)
		}
		if !isConnected(c) {
			t.Fatalf("CCC_%d disconnected", k)
		}
	}
	if _, err := NewCCC(2); err == nil {
		t.Error("NewCCC(2) should fail")
	}
	if _, err := NewCCC(25); err == nil {
		t.Error("NewCCC(25) should fail")
	}
}

func TestCCCStructure(t *testing.T) {
	c := mustCCC(3)
	// Node (p=0, v=0) = 0: cycle neighbors (1,0)=1, (2,0)=2; cube neighbor (0,1)=3.
	ns := c.Neighbors(0)
	want := []int{1, 2, 3}
	if len(ns) != 3 || ns[0] != want[0] || ns[1] != want[1] || ns[2] != want[2] {
		t.Fatalf("CCC_3 neighbors(0) = %v, want %v", ns, want)
	}
	if !c.HasEdge(0, 3) || c.HasEdge(0, 4) {
		t.Error("CCC_3 cube-edge structure wrong")
	}
}

func TestDeBruijnBasics(t *testing.T) {
	for q := 2; q <= 8; q++ {
		d := mustDeBruijn(q)
		if d.Nodes() != 1<<q {
			t.Fatalf("DB_%d nodes", q)
		}
		if err := checkSymmetric(d); err != nil {
			t.Fatal(err)
		}
		if !isConnected(d) {
			t.Fatalf("DB_%d disconnected", q)
		}
		for u := 0; u < d.Nodes(); u++ {
			if d.Degree(u) > 4 {
				t.Fatalf("DB_%d degree(%d)=%d > 4", q, u, d.Degree(u))
			}
		}
		// Diameter of the undirected binary de Bruijn graph is at most q.
		if diam := DiameterBFS(d); diam > q {
			t.Fatalf("DB_%d diameter %d > %d", q, diam, q)
		}
	}
	if _, err := NewDeBruijn(0); err == nil {
		t.Error("NewDeBruijn(0) should fail")
	}
}

func TestShuffleExchangeBasics(t *testing.T) {
	for q := 2; q <= 8; q++ {
		s := mustShuffleExchange(q)
		if s.Nodes() != 1<<q {
			t.Fatalf("SE_%d nodes", q)
		}
		if err := checkSymmetric(s); err != nil {
			t.Fatal(err)
		}
		if !isConnected(s) {
			t.Fatalf("SE_%d disconnected", q)
		}
		for u := 0; u < s.Nodes(); u++ {
			if s.Degree(u) > 3 {
				t.Fatalf("SE_%d degree(%d)=%d > 3", q, u, s.Degree(u))
			}
		}
	}
	if _, err := NewShuffleExchange(0); err == nil {
		t.Error("NewShuffleExchange(0) should fail")
	}
}

func TestCompetitorMustConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"CCC":             func() { mustCCC(1) },
		"DeBruijn":        func() { mustDeBruijn(0) },
		"ShuffleExchange": func() { mustShuffleExchange(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s Must constructor should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAnalyze(t *testing.T) {
	st := Analyze(MustDualCube(2))
	if st.Name != "D_2" || st.Nodes != 8 || st.Edges != 8 || st.Degree != 2 || !st.Regular || st.Diameter != 4 {
		t.Errorf("Analyze(D_2) = %+v", st)
	}
	if st.AvgDist <= 0 {
		t.Errorf("Analyze(D_2) avg distance = %v", st.AvgDist)
	}
	// Non-regular example: de Bruijn.
	db := Analyze(mustDeBruijn(3))
	if db.Regular {
		t.Error("DB_3 should not be regular (self-loop nodes have lower degree)")
	}
}

func TestGraphErrorMessage(t *testing.T) {
	e := &graphError{Op: "Check", U: 3, V: -1, Msg: "bad"}
	if e.Error() != "Check: bad (u=3, v=-1)" {
		t.Errorf("graphError format: %q", e.Error())
	}
	if itoa(0) != "0" || itoa(-12) != "-12" || itoa(907) != "907" {
		t.Error("itoa broken")
	}
}

func TestButterflyBasics(t *testing.T) {
	for k := 3; k <= 6; k++ {
		b := mustButterfly(k)
		if b.Nodes() != k<<k {
			t.Fatalf("WBF_%d nodes = %d", k, b.Nodes())
		}
		if deg, ok := IsRegular(b); !ok || deg != 4 {
			t.Fatalf("WBF_%d degree=%d regular=%v", k, deg, ok)
		}
		if err := checkSymmetric(b); err != nil {
			t.Fatal(err)
		}
		if !isConnected(b) {
			t.Fatalf("WBF_%d disconnected", k)
		}
		// Diameter of the wrapped butterfly is known to be floor(3k/2).
		if diam := DiameterBFS(b); diam != 3*k/2 {
			t.Errorf("WBF_%d diameter = %d, want %d", k, diam, 3*k/2)
		}
	}
	if _, err := NewButterfly(2); err == nil {
		t.Error("NewButterfly(2) should fail")
	}
	if _, err := NewButterfly(99); err == nil {
		t.Error("NewButterfly(99) should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mustButterfly(1) should panic")
			}
		}()
		mustButterfly(1)
	}()
}

func TestButterflyStructure(t *testing.T) {
	b := mustButterfly(3)
	// Node (level 0, row 0) = 0: straight to (1,0)=1, cross to (1,1)=3+?,
	// id(1, row 1) = 1*? -> row*k+level = 1*3+1 = 4; prev level (2,0)=2 and
	// (2, 0^4)=4*3+2=14.
	ns := b.Neighbors(0)
	want := []int{1, 2, 4, 14}
	if len(ns) != 4 {
		t.Fatalf("neighbors(0) = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("WBF_3 neighbors(0) = %v, want %v", ns, want)
		}
	}
}
