package prefix

import (
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

// FuzzDPrefixD3 fuzzes Algorithm 2 on D_3 against the sequential scan,
// with both signed values (sum) and the non-commutative concat monoid
// driven from the same bytes.
func FuzzDPrefixD3(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), true)
	f.Add(make([]byte, 32), false)
	f.Fuzz(func(t *testing.T, data []byte, inclusive bool) {
		const n = 3
		N := 1 << (2*n - 1)
		ints := make([]int, N)
		strs := make([]string, N)
		for i := range ints {
			if i < len(data) {
				ints[i] = int(int8(data[i])) // signed: exercises negatives
				strs[i] = string(rune('a' + int(data[i])%26))
			}
		}
		got, st, err := DPrefix(machine.Config{}, topology.MustDualCube(n), ints, monoid.Sum[int](), inclusive, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.ScanInclusive(ints, monoid.Sum[int]())
		if !inclusive {
			want = seq.ScanExclusive(ints, monoid.Sum[int]())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sum prefix wrong at %d", i)
			}
		}
		if st.Cycles != MeasuredCommSteps(n) {
			t.Fatalf("comm %d", st.Cycles)
		}
		gs, _, err := DPrefix(machine.Config{}, topology.MustDualCube(n), strs, monoid.Concat(), inclusive, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws := seq.ScanInclusive(strs, monoid.Concat())
		if !inclusive {
			ws = seq.ScanExclusive(strs, monoid.Concat())
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("concat prefix wrong at %d: %q vs %q", i, gs[i], ws[i])
			}
		}
	})
}
