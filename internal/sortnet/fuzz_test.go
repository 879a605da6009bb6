package sortnet

import (
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

// FuzzDSortD3 fuzzes D_sort on D_3 with arbitrary byte-derived keys,
// checking the two sorting invariants: output sorted and multiset
// preserved. Runs its seed corpus under plain `go test`; use
// `go test -fuzz=FuzzDSortD3 ./internal/sortnet` to explore further.
func FuzzDSortD3(f *testing.F) {
	f.Add([]byte("seed-corpus-entry-0123456789abcdef0123456789abcd"))
	f.Add(make([]byte, 32))
	f.Add([]byte{255, 0, 255, 0, 1, 2, 3, 4, 250, 249, 248, 200, 100, 50, 25, 12,
		6, 3, 1, 0, 9, 9, 9, 9, 7, 7, 7, 7, 128, 128, 64, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		t.Parallel()
		const n = 3
		N := 1 << (2*n - 1)
		in := make([]int, N)
		for i := range in {
			if i < len(data) {
				in[i] = int(data[i])
			}
		}
		got, st, err := DSort(machine.Config{}, topology.MustDualCube(n), in, intLess, Ascending, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.IsSorted(got, intLess) {
			t.Fatalf("not sorted: %v", got)
		}
		if !seq.SameMultiset(in, got, intLess) {
			t.Fatalf("multiset changed: %v -> %v", in, got)
		}
		if st.Cycles != DSortCommSteps(n) {
			t.Fatalf("comm steps %d", st.Cycles)
		}
	})
}

// FuzzMergeSplit fuzzes the merge-split block comparator underlying the
// large-input sort.
func FuzzMergeSplit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 3, 4, 5})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{9}, []byte{1})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		t.Parallel()
		if len(ab) != len(bb) || len(ab) == 0 || len(ab) > 64 {
			t.Skip()
		}
		a := make([]int, len(ab))
		b := make([]int, len(bb))
		for i := range ab {
			a[i] = int(ab[i])
			b[i] = int(bb[i])
		}
		a = seq.Sorted(a, intLess)
		b = seq.Sorted(b, intLess)
		low := mergeSplit(a, b, intLess, true)
		high := mergeSplit(a, b, intLess, false)
		if !seq.IsSorted(low, intLess) || !seq.IsSorted(high, intLess) {
			t.Fatal("halves unsorted")
		}
		if len(low) > 0 && len(high) > 0 && intLess(high[0], low[len(low)-1]) {
			t.Fatal("split point wrong")
		}
		union := append(append([]int{}, a...), b...)
		merged := append(append([]int{}, low...), high...)
		if !seq.SameMultiset(union, merged, intLess) {
			t.Fatal("elements lost")
		}
	})
}
