package sortnet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dualcube/internal/machine"
	"dualcube/internal/seq"
	"dualcube/internal/topology"
)

func intLess(a, b int) bool { return a < b }

func checkSorted(t *testing.T, label string, in, got []int, ord Order) {
	t.Helper()
	if !seq.SameMultiset(in, got, intLess) {
		t.Fatalf("%s: output is not a permutation of the input\nin:  %v\nout: %v", label, in, got)
	}
	ok := seq.IsSorted(got, intLess)
	if ord == Descending {
		ok = seq.IsSortedDesc(got, intLess)
	}
	if !ok {
		t.Fatalf("%s: output not sorted %s: %v", label, ord, got)
	}
}

func TestCubeSortAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for q := 0; q <= 8; q++ {
		for _, ord := range []Order{Ascending, Descending} {
			in := make([]int, 1<<q)
			for i := range in {
				in[i] = rng.Intn(100)
			}
			got, st, err := CubeSort(machine.Config{}, q, in, intLess, ord)
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			checkSorted(t, "CubeSort", in, got, ord)
			if st.Cycles != CubeSortSteps(q) {
				t.Errorf("q=%d: comm %d, want %d", q, st.Cycles, CubeSortSteps(q))
			}
			if st.MaxOps != CubeSortSteps(q) {
				t.Errorf("q=%d: comparisons %d, want %d", q, st.MaxOps, CubeSortSteps(q))
			}
		}
	}
}

func TestCubeSortZeroOnePrinciple(t *testing.T) {
	// Exhaustive 0/1 inputs on Q_4: by the 0/1 principle this proves the
	// comparator network sorts arbitrary keys.
	q := 4
	N := 1 << q
	for mask := 0; mask < 1<<N; mask++ {
		in := make([]int, N)
		ones := 0
		for i := range in {
			in[i] = mask >> i & 1
			ones += in[i]
		}
		got, _, err := CubeSort(machine.Config{}, q, in, intLess, Ascending)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := 0
			if i >= N-ones {
				want = 1
			}
			if got[i] != want {
				t.Fatalf("mask %b: output %v", mask, got)
			}
		}
	}
}

func TestDSortD1(t *testing.T) {
	for _, tc := range []struct {
		in   []int
		ord  Order
		want []int
	}{
		{[]int{2, 1}, Ascending, []int{1, 2}},
		{[]int{1, 2}, Ascending, []int{1, 2}},
		{[]int{1, 2}, Descending, []int{2, 1}},
		{[]int{5, 5}, Ascending, []int{5, 5}},
	} {
		got, st, err := DSort(machine.Config{}, topology.MustDualCube(1), tc.in, intLess, tc.ord, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("DSort(machine.Config{}, D_1, %v, %v) = %v", tc.in, tc.ord, got)
			}
		}
		if st.Cycles != 1 || st.MaxOps != 1 {
			t.Errorf("D_1 stats: %+v", st)
		}
	}
}

func TestDSortD2Exhaustive(t *testing.T) {
	// All 8! permutations of 0..7 on D_2, both directions. Stronger than
	// the 0/1 principle and still fast.
	if testing.Short() {
		t.Skip("exhaustive permutation test skipped in -short mode")
	}
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var rec func(k int)
	count := 0
	rec = func(k int) {
		if k == len(perm) {
			count++
			in := append([]int(nil), perm...)
			got, _, err := DSort(machine.Config{}, topology.MustDualCube(2), in, intLess, Ascending, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != i {
					t.Fatalf("perm %v -> %v", in, got)
				}
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if count != 40320 {
		t.Fatalf("tested %d permutations", count)
	}
}

func TestDSortD2ExhaustiveDescending(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive permutation test skipped in -short mode")
	}
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			in := append([]int(nil), perm...)
			got, _, err := DSort(machine.Config{}, topology.MustDualCube(2), in, intLess, Descending, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != 7-i {
					t.Fatalf("perm %v -> %v", in, got)
				}
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

func TestDSortD3ZeroOnePrinciple(t *testing.T) {
	// Exhaustive 0/1 inputs on D_3 (2^32 is too many; use all masks over a
	// reduced template instead: every 0/1 vector is determined by its
	// number of ones ONLY after sorting, but the network must handle every
	// arrangement — so we exhaust arrangements in two halves).
	// Full 2^32 is infeasible; instead exhaust all 0/1 vectors with
	// support confined to each aligned 16-node window, plus random masks.
	if testing.Short() {
		t.Skip("large 0/1 sweep skipped in -short mode")
	}
	N := 32
	run := func(in []int) {
		ones := 0
		for _, v := range in {
			ones += v
		}
		got, _, err := DSort(machine.Config{}, topology.MustDualCube(3), in, intLess, Ascending, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := 0
			if i >= N-ones {
				want = 1
			}
			if got[i] != want {
				t.Fatalf("0/1 input %v -> %v", in, got)
			}
		}
	}
	for lo := 0; lo < N; lo += 16 {
		for mask := 0; mask < 1<<16; mask += 7 { // stride keeps runtime sane
			in := make([]int, N)
			for i := 0; i < 16; i++ {
				in[lo+i] = mask >> i & 1
			}
			run(in)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(2)
		}
		run(in)
	}
}

func TestDSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 5; n++ {
		N := 1 << (2*n - 1)
		for _, ord := range []Order{Ascending, Descending} {
			trials := 20
			if n >= 5 {
				trials = 3
			}
			for trial := 0; trial < trials; trial++ {
				in := make([]int, N)
				for i := range in {
					in[i] = rng.Intn(50) - 25
				}
				got, st, err := DSort(machine.Config{}, topology.MustDualCube(n), in, intLess, ord, nil)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				checkSorted(t, "DSort", in, got, ord)
				if st.Cycles != DSortCommSteps(n) {
					t.Errorf("n=%d: comm %d, want %d", n, st.Cycles, DSortCommSteps(n))
				}
				if st.MaxOps != DSortCompSteps(n) {
					t.Errorf("n=%d: comparisons %d, want %d", n, st.MaxOps, DSortCompSteps(n))
				}
				if st.Cycles > PaperSortCommBound(n) {
					t.Errorf("n=%d: comm %d exceeds Theorem 2 bound %d", n, st.Cycles, PaperSortCommBound(n))
				}
				if st.MaxOps > PaperSortCompBound(n) {
					t.Errorf("n=%d: comp %d exceeds Theorem 2 bound %d", n, st.MaxOps, PaperSortCompBound(n))
				}
			}
		}
	}
}

func TestDSortAdversarialInputs(t *testing.T) {
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		cases := map[string][]int{}
		asc := make([]int, N)
		desc := make([]int, N)
		equal := make([]int, N)
		organ := make([]int, N)
		dup := make([]int, N)
		for i := 0; i < N; i++ {
			asc[i] = i
			desc[i] = N - i
			equal[i] = 42
			if i < N/2 {
				organ[i] = i
			} else {
				organ[i] = N - i
			}
			dup[i] = i % 3
		}
		cases["already-sorted"] = asc
		cases["reverse-sorted"] = desc
		cases["all-equal"] = equal
		cases["organ-pipe"] = organ
		cases["heavy-duplicates"] = dup
		for label, in := range cases {
			got, _, err := DSort(machine.Config{}, topology.MustDualCube(n), in, intLess, Ascending, nil)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, label, err)
			}
			checkSorted(t, label, in, got, Ascending)
		}
	}
}

func TestDSortQuick(t *testing.T) {
	f := func(nSeed uint8, seed int64, descending bool) bool {
		n := int(nSeed)%3 + 1
		ord := Ascending
		if descending {
			ord = Descending
		}
		rng := rand.New(rand.NewSource(seed))
		in := make([]int, 1<<(2*n-1))
		for i := range in {
			in[i] = rng.Intn(1000)
		}
		got, _, err := DSort(machine.Config{}, topology.MustDualCube(n), in, intLess, ord, nil)
		if err != nil {
			return false
		}
		if !seq.SameMultiset(in, got, intLess) {
			return false
		}
		if ord == Descending {
			return seq.IsSortedDesc(got, intLess)
		}
		return seq.IsSorted(got, intLess)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDSortStructKeys(t *testing.T) {
	// Sorting records by a field, not just ints.
	type job struct {
		prio int
		name string
	}
	n := 2
	N := 1 << (2*n - 1)
	in := make([]job, N)
	for i := range in {
		in[i] = job{prio: (i*5 + 3) % N, name: string(rune('a' + i))}
	}
	got, _, err := DSort(machine.Config{}, topology.MustDualCube(n), in, func(a, b job) bool { return a.prio < b.prio }, Ascending, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < N; i++ {
		if got[i].prio < got[i-1].prio {
			t.Fatalf("records not sorted: %+v", got)
		}
	}
}

func TestDSortBadInput(t *testing.T) {
	if _, _, err := DSort(machine.Config{}, topology.MustDualCube(2), make([]int, 3), intLess, Ascending, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := DSort(machine.Config{}, topology.MustDualCube(2), nil, intLess, Ascending, nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestSortInvalidOrder(t *testing.T) {
	// Order(2) used to sort descending while labelling itself "asc"; every
	// entry point now rejects it with the uniform validation wording.
	const want = "sortnet: invalid Order(2): want Ascending or Descending"
	bad := Order(2)
	if _, _, err := DSort(machine.Config{}, topology.MustDualCube(2), make([]int, 8), intLess, bad, nil); err == nil || err.Error() != want {
		t.Errorf("DSort: err = %v, want %q", err, want)
	}
	if _, _, err := CubeSort(machine.Config{}, 3, make([]int, 8), intLess, bad); err == nil || err.Error() != want {
		t.Errorf("CubeSort: err = %v, want %q", err, want)
	}
	if _, _, _, err := DSortRecorded(machine.Config{}, topology.MustDualCube(2), make([]int, 8), intLess, bad); err == nil || err.Error() != want {
		t.Errorf("DSortRecorded: err = %v, want %q", err, want)
	}
	if _, _, err := DSortLarge(machine.Config{}, topology.MustDualCube(2), 2, make([]int, 16), intLess, bad); err == nil || err.Error() != want {
		t.Errorf("DSortLarge: err = %v, want %q", err, want)
	}
	// The trace must stay untouched when validation rejects the call.
	var tr Trace[int]
	if _, _, err := DSort(machine.Config{}, topology.MustDualCube(2), make([]int, 8), intLess, bad, &tr); err == nil {
		t.Error("traced DSort with invalid Order should fail")
	}
	if len(tr.Steps) != 0 {
		t.Errorf("trace has %d steps after rejected call", len(tr.Steps))
	}
}

func TestDSortTraceResetOnError(t *testing.T) {
	// A run that fails mid-program must not leave the trace populated with
	// preallocated zero-value snapshots (stale Figure 5/6 data).
	faulty := machine.Config{Faults: &machine.FaultSpec{Links: [][2]int{{0, 1}}}}
	in := []int{5, 3, 7, 1, 6, 0, 4, 2}
	var tr Trace[int]
	if _, _, err := DSort(faulty, topology.MustDualCube(2), in, intLess, Ascending, &tr); err == nil {
		t.Fatal("DSort under a permanent link fault should fail")
	}
	if len(tr.Steps) != 0 {
		t.Fatalf("trace has %d steps after failed run", len(tr.Steps))
	}
	// A pre-populated trace keeps its earlier entries and only drops the
	// failed run's snapshots.
	tr.Steps = append(tr.Steps, Step[int]{Label: "earlier"})
	if _, _, err := DSort(faulty, topology.MustDualCube(2), in, intLess, Ascending, &tr); err == nil {
		t.Fatal("DSort under a permanent link fault should fail")
	}
	if len(tr.Steps) != 1 || tr.Steps[0].Label != "earlier" {
		t.Fatalf("pre-existing trace entries clobbered: %+v", tr.Steps)
	}
	// And the same input succeeds with an intact trace without the faults.
	tr = Trace[int]{}
	if _, _, err := DSort(machine.Config{}, topology.MustDualCube(2), in, intLess, Ascending, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 1+DSortCompSteps(2) {
		t.Fatalf("trace has %d steps after clean run", len(tr.Steps))
	}
}

func TestDSortStepFormulas(t *testing.T) {
	// Closed forms vs the recurrences in the proof of Theorem 2.
	commRec, compRec := 1, 1
	for n := 2; n <= 10; n++ {
		commRec += 3*(2*n-3) + 1 + 3*(2*n-2) + 1
		compRec += (2*n - 2) + (2*n - 1)
		if commRec != DSortCommSteps(n) {
			t.Errorf("n=%d: comm closed form %d != recurrence %d", n, DSortCommSteps(n), commRec)
		}
		if compRec != DSortCompSteps(n) {
			t.Errorf("n=%d: comp closed form %d != recurrence %d", n, DSortCompSteps(n), compRec)
		}
		if DSortCommSteps(n) > PaperSortCommBound(n) {
			t.Errorf("n=%d: closed form exceeds paper bound", n)
		}
		if DSortCompSteps(n) > PaperSortCompBound(n) {
			t.Errorf("n=%d: comp closed form exceeds paper bound", n)
		}
	}
}

func TestDSortTraceFigures56(t *testing.T) {
	t.Parallel()
	// Figures 5 and 6: D_sort(D_2, ascending) on 8 keys. The trace must
	// show (1) the four sorted D_1 blocks alternating asc/desc after the
	// base sort, (2) an ascending half and a descending half — a bitonic
	// sequence — after the half-merge (end of Figure 5), and (3) the sorted
	// sequence after the final merge (Figure 6).
	in := []int{5, 3, 7, 1, 6, 0, 4, 2}
	var tr Trace[int]
	got, _, err := DSort(machine.Config{}, topology.MustDualCube(2), in, intLess, Ascending, &tr)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := 1 + DSortCompSteps(2) // input + one snapshot per step
	if len(tr.Steps) != wantSteps {
		t.Fatalf("trace has %d steps, want %d", len(tr.Steps), wantSteps)
	}
	if tr.Steps[0].Label != "input" {
		t.Errorf("first step label %q", tr.Steps[0].Label)
	}
	// After the base sort (level 1): blocks {0,1} asc, {2,3} desc, {4,5} asc, {6,7} desc.
	base := tr.Steps[1].Keys
	for b := 0; b < 4; b++ {
		lo, hi := base[2*b], base[2*b+1]
		if b%2 == 0 && lo > hi {
			t.Errorf("block %d not ascending after base sort: %v", b, base)
		}
		if b%2 == 1 && lo < hi {
			t.Errorf("block %d not descending after base sort: %v", b, base)
		}
	}
	// After the half-merge (steps at level 2, dims 1..0): halves sorted
	// asc / desc, so the whole is bitonic.
	half := tr.Steps[3].Keys
	if !seq.IsSorted(half[:4], intLess) || !seq.IsSortedDesc(half[4:], intLess) {
		t.Errorf("after half-merge: %v (want asc half, desc half)", half)
	}
	if !seq.IsBitonic(half, intLess) {
		t.Errorf("after half-merge not bitonic: %v", half)
	}
	// Final snapshot equals the output, sorted.
	last := tr.Steps[len(tr.Steps)-1].Keys
	for i := range got {
		if last[i] != got[i] || got[i] != i {
			t.Fatalf("final trace/output wrong: trace %v out %v", last, got)
		}
	}
}

// TestDSortTraceLabels checks the Figure 5/6 labels that DSort derives
// from the compiled schedule's orientation: one per compare-exchange step,
// the level-1 base sort first, then per level l >= 2 a half-merge over dims
// 2l-3..0 and a final merge over dims 2l-2..0.
func TestDSortTraceLabels(t *testing.T) {
	t.Parallel()
	const n = 3
	var tr Trace[int]
	if _, _, err := DSort(machine.Config{}, topology.MustDualCube(n), make([]int, 1<<(2*n-1)), intLess, Ascending, &tr); err != nil {
		t.Fatal(err)
	}
	sched := tr.Steps[1:]
	if len(sched) != DSortCompSteps(n) {
		t.Fatalf("trace has %d steps, want %d", len(sched), DSortCompSteps(n))
	}
	if sched[0].Label != "level 1 base-sort dim 0" || sched[0].Level != 1 || sched[0].Dim != 0 {
		t.Errorf("first step %q (level %d dim %d)", sched[0].Label, sched[0].Level, sched[0].Dim)
	}
	i := 1
	for l := 2; l <= n; l++ {
		for _, phase := range []struct {
			name string
			top  int
		}{{"half-merge", 2*l - 3}, {"final-merge", 2*l - 2}} {
			for j := phase.top; j >= 0; j-- {
				want := fmt.Sprintf("level %d %s dim %d", l, phase.name, j)
				if s := sched[i]; s.Label != want || s.Level != l || s.Dim != j {
					t.Fatalf("step %d = %q (level %d dim %d), want %q", i, s.Label, s.Level, s.Dim, want)
				}
				i++
			}
		}
	}
}

func TestOrderString(t *testing.T) {
	if Ascending.String() != "asc" || Descending.String() != "desc" {
		t.Error("Order.String broken")
	}
	// Invalid values must not claim either direction.
	if got := Order(2).String(); got != "Order(2)" {
		t.Errorf("Order(2).String() = %q", got)
	}
	if got := Order(-1).String(); got != "Order(-1)" {
		t.Errorf("Order(-1).String() = %q", got)
	}
}

func TestDSortRecordedMatchesDSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(1000)
		}
		plain, stP, err := DSort(machine.Config{}, topology.MustDualCube(n), in, intLess, Ascending, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, stR, recording, err := DSortRecorded(machine.Config{}, topology.MustDualCube(n), in, intLess, Ascending)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if plain[i] != rec[i] {
				t.Fatalf("n=%d: recorded output differs at %d", n, i)
			}
		}
		if stP != stR {
			t.Errorf("n=%d: stats differ", n)
		}
		if int64(len(recording.Events)) != stR.Messages {
			t.Errorf("n=%d: event/message mismatch", n)
		}
	}
	if _, _, _, err := DSortRecorded(machine.Config{}, topology.MustDualCube(2), nil, intLess, Ascending); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, _, err := DSortRecorded(machine.Config{}, topology.MustDualCube(2), make([]int, 3), intLess, Ascending); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestDSortScheduleLinkInvariants(t *testing.T) {
	// The 3-cycle schedule's contention-freedom, verified from the message
	// log: no directed link ever carries two messages in one cycle, and no
	// node ever sends twice in one cycle.
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]int, N)
		for i := range in {
			in[i] = rng.Intn(1000)
		}
		_, _, rec, err := DSortRecorded(machine.Config{}, topology.MustDualCube(n), in, intLess, Ascending)
		if err != nil {
			t.Fatal(err)
		}
		type slot struct{ cycle, src, dst int }
		linkUse := map[slot]int{}
		sendUse := map[[2]int]int{}
		recvUse := map[[2]int]int{}
		for _, ev := range rec.Events {
			linkUse[slot{ev.Cycle, ev.Src, ev.Dst}]++
			sendUse[[2]int{ev.Cycle, ev.Src}]++
			recvUse[[2]int{ev.Cycle, ev.Dst}]++
		}
		for k, c := range linkUse {
			if c > 1 {
				t.Fatalf("n=%d: link (%d->%d) carried %d messages in cycle %d", n, k.src, k.dst, c, k.cycle)
			}
		}
		for k, c := range sendUse {
			if c > 1 {
				t.Fatalf("n=%d: node %d sent %d messages in cycle %d", n, k[1], c, k[0])
			}
		}
		// Arrivals per node per cycle stay within the two-link
		// bidirectional-channel allowance.
		for k, c := range recvUse {
			if c > 2 {
				t.Fatalf("n=%d: node %d received %d messages in cycle %d", n, k[1], c, k[0])
			}
		}
	}
}
