package dualcube

import (
	"sort"
	"strings"
	"testing"
)

// TestNewRuntimeOnFamilies builds a Runtime for every supported family and
// checks the identity surface plus one end-to-end operation per handle: the
// prefix sums must match the sequential scan regardless of topology.
func TestNewRuntimeOnFamilies(t *testing.T) {
	wantNames := map[string]string{"dualcube": "D_3", "hypercube": "Q_5", "zcube": "Z_3"}
	for _, fam := range Families() {
		rt, err := NewRuntimeOn(fam, 3)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if rt.Family() != fam || rt.Order() != 3 || rt.Nodes() != 32 {
			t.Fatalf("%s: Family=%q Order=%d Nodes=%d", fam, rt.Family(), rt.Order(), rt.Nodes())
		}
		if got := rt.Comm().Name(); got != wantNames[fam] {
			t.Errorf("%s: topology name %q, want %q", fam, got, wantNames[fam])
		}
		if err := rt.Warm(); err != nil {
			t.Fatalf("%s: Warm: %v", fam, err)
		}
		in := make([]int, rt.Nodes())
		for i := range in {
			in[i] = 3*i + 1
		}
		out, st, err := PrefixOn(rt, in)
		if err != nil {
			t.Fatalf("%s: PrefixOn: %v", fam, err)
		}
		acc := 0
		for i, v := range in {
			acc += v
			if out[i] != acc {
				t.Fatalf("%s: prefix[%d] = %d, want %d", fam, i, out[i], acc)
			}
		}
		if st.Cycles == 0 || st.Nodes != 32 {
			t.Errorf("%s: implausible stats %+v", fam, st)
		}
	}
}

// TestNewRuntimeOnUnknownFamily checks the error path names the offender and
// the accepted identifiers' source.
func TestNewRuntimeOnUnknownFamily(t *testing.T) {
	if _, err := NewRuntimeOn("torus", 3); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("NewRuntimeOn(torus) err = %v, want error naming the family", err)
	}
	if _, err := NewRuntimeOn("zcube", 0); err == nil {
		t.Fatal("NewRuntimeOn(zcube, 0) succeeded, want order range error")
	}
}

// TestRuntimeSortOnAllFamilies runs the sort end to end on every family and
// checks the result is the sorted permutation — the recursive presentation
// all three families share.
func TestRuntimeSortOnAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		rt, err := NewRuntimeOn(fam, 3)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]int, rt.Nodes())
		for i := range in {
			in[i] = (i * 2654435761) % 97
		}
		out, _, err := SortOn(rt, in, Ascending)
		if err != nil {
			t.Fatalf("%s: SortOn: %v", fam, err)
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s: sorted[%d] = %d, want %d", fam, i, out[i], want[i])
			}
		}
	}
}
