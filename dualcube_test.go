package dualcube

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
)

func intLess(a, b int) bool { return a < b }

func seqSum() monoid.Monoid[int] { return monoid.Sum[int]() }

func TestNewNetwork(t *testing.T) {
	nw, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Order() != 3 || nw.Nodes() != 32 || nw.Degree() != 3 || nw.Diameter() != 6 || nw.ClusterSize() != 4 {
		t.Errorf("D_3 facade: order=%d nodes=%d degree=%d diam=%d cs=%d",
			nw.Order(), nw.Nodes(), nw.Degree(), nw.Diameter(), nw.ClusterSize())
	}
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
}

func TestNetworkStructureQueries(t *testing.T) {
	nw, _ := New(2)
	if nw.Class(0) != 0 || nw.Class(4) != 1 {
		t.Error("Class broken")
	}
	if nw.CrossNeighbor(0) != 4 || nw.CrossNeighbor(4) != 0 {
		t.Error("CrossNeighbor broken")
	}
	if !nw.HasEdge(0, 1) || nw.HasEdge(0, 2) {
		t.Error("HasEdge broken")
	}
	ns := nw.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 4 {
		t.Errorf("Neighbors(0) = %v", ns)
	}
	if nw.ClusterID(1) != 0 || nw.LocalID(1) != 1 {
		t.Error("cluster addressing broken")
	}
	// Nodes 0 and 2 lie in distinct class-0 clusters: Hamming distance 1
	// plus 2 for the cross-edge detour.
	if d := nw.Distance(0, 2); d != 3 {
		t.Errorf("Distance(0,2) = %d, want 3 (same class, different cluster)", d)
	}
	path := nw.Route(0, 2)
	if path[0] != 0 || path[len(path)-1] != 2 || len(path)-1 != 3 {
		t.Errorf("Route(0,2) = %v", path)
	}
	if nw.FromRecursive(nw.ToRecursive(5)) != 5 {
		t.Error("recursive round-trip broken")
	}
}

func TestPrefixFacade(t *testing.T) {
	n := 3
	N := 1 << (2*n - 1)
	in := make([]int, N)
	for i := range in {
		in[i] = i + 1
	}
	got, st, err := Prefix(n, in)
	if err != nil {
		t.Fatal(err)
	}
	acc := 0
	for i := range in {
		acc += in[i]
		if got[i] != acc {
			t.Fatalf("prefix[%d] = %d, want %d", i, got[i], acc)
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("prefix comm = %d, want %d", st.Cycles, 2*n)
	}
}

func TestPrefixFuncNonCommutative(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	in := make([]string, N)
	for i := range in {
		in[i] = string(rune('a' + i))
	}
	got, _, err := PrefixFunc(n, in,
		func() string { return "" },
		func(a, b string) string { return a + b },
		false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "" || got[N-1] != "abcdefg" {
		t.Errorf("diminished concat prefix: %v", got)
	}
}

func TestPrefixLargeFacade(t *testing.T) {
	n, k := 2, 4
	N := 1 << (2*n - 1)
	in := make([]float64, k*N)
	for i := range in {
		in[i] = 0.5
	}
	got, st, err := PrefixLarge(n, k, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0.5*float64(i+1) {
			t.Fatalf("large prefix[%d] = %v", i, got[i])
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("comm = %d", st.Cycles)
	}
	// Func variant, diminished.
	got2, _, err := PrefixLargeFunc(n, k, in,
		func() float64 { return 0 },
		func(a, b float64) float64 { return a + b },
		false)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0] != 0 || got2[len(got2)-1] != 0.5*float64(k*N-1) {
		t.Errorf("diminished large prefix ends: %v %v", got2[0], got2[len(got2)-1])
	}
}

func TestSortFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 3
	N := 1 << (2*n - 1)
	in := make([]int, N)
	for i := range in {
		in[i] = rng.Intn(1000)
	}
	got, st, err := Sort(n, in, Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSorted(got, intLess) || !seq.SameMultiset(in, got, intLess) {
		t.Errorf("Sort failed: %v", got)
	}
	if st.Cycles != 6*n*n-7*n+2 {
		t.Errorf("sort comm = %d, want %d", st.Cycles, 6*n*n-7*n+2)
	}
	down, _, err := Sort(n, in, Descending)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSortedDesc(down, intLess) {
		t.Error("descending sort failed")
	}
}

func TestSortFuncRecords(t *testing.T) {
	type rec struct {
		key  float64
		name string
	}
	n := 2
	N := 1 << (2*n - 1)
	in := make([]rec, N)
	for i := range in {
		in[i] = rec{key: float64((i * 3) % N), name: string(rune('A' + i))}
	}
	got, _, err := SortFunc(n, in, func(a, b rec) bool { return a.key < b.key }, Ascending)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < N; i++ {
		if got[i].key < got[i-1].key {
			t.Fatalf("records unsorted: %v", got)
		}
	}
}

func TestSortLargeFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 2, 5
	N := 1 << (2*n - 1)
	in := make([]int, k*N)
	for i := range in {
		in[i] = rng.Intn(100)
	}
	got, _, err := SortLarge(n, k, in, Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSorted(got, intLess) || !seq.SameMultiset(in, got, intLess) {
		t.Error("SortLarge failed")
	}
	got2, _, err := SortLargeFunc(n, k, in, intLess, Descending)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSortedDesc(got2, intLess) {
		t.Error("SortLargeFunc descending failed")
	}
}

func TestCollectiveFacades(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	bc, st, err := Broadcast(n, 3, "hello")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bc {
		if v != "hello" {
			t.Fatal("broadcast failed")
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("broadcast comm = %d", st.Cycles)
	}

	in := make([]int, N)
	for i := range in {
		in[i] = i
	}
	ar, _, err := AllReduceSum(n, in)
	if err != nil {
		t.Fatal(err)
	}
	want := N * (N - 1) / 2
	for _, v := range ar {
		if v != want {
			t.Fatalf("allreduce = %d, want %d", v, want)
		}
	}

	cat, _, err := AllReduce(n, []string{"a", "b", "c", "d", "e", "f", "g", "h"},
		func() string { return "" },
		func(a, b string) string { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if cat[0] != "abcdefgh" {
		t.Errorf("ordered allreduce = %q", cat[0])
	}

	g, _, err := Gather(n, 5, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if g[i] != in[i] {
			t.Fatal("gather failed")
		}
	}
}

func TestPrefixSegmentedFacade(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	values := []int{1, 2, 3, 4, 5, 6, 7, 8}
	heads := make([]bool, N)
	heads[4] = true
	got, st, err := PrefixSegmented(n, values, heads,
		func() int { return 0 },
		func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 6, 10, 5, 11, 18, 26}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segmented prefix = %v", got)
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("segmented prefix comm = %d", st.Cycles)
	}
}

func TestScatterAllGatherFacade(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	nw, _ := New(n)
	in := []int{10, 20, 30, 40, 50, 60, 70, 80}
	sc, _, err := Scatter(n, 0, in)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < N; u++ {
		// Node u holds element DataIndex(u); for class-0 nodes that is u.
		if nw.Class(u) == 0 && sc[u] != in[u] {
			t.Fatalf("scatter node %d = %d", u, sc[u])
		}
	}
	ag, _, err := AllGather(n, in)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < N; u++ {
		for i := range in {
			if ag[u][i] != in[i] {
				t.Fatalf("allgather node %d element %d", u, i)
			}
		}
	}
}

func TestPermuteFacade(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	dests := make([]int, N)
	values := make([]int, N)
	for i := range dests {
		dests[i] = (i + 3) % N
		values[i] = i * 11
	}
	got, _, err := Permute(n, dests, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got[dests[i]] != values[i] {
			t.Fatalf("permute wrong at %d", i)
		}
	}
}

func TestHamiltonianCycleFacade(t *testing.T) {
	nw, _ := New(3)
	cycle, err := HamiltonianCycle(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != nw.Nodes() {
		t.Fatalf("cycle length %d", len(cycle))
	}
	seen := map[int]bool{}
	for i, u := range cycle {
		if seen[u] {
			t.Fatalf("node %d repeated", u)
		}
		seen[u] = true
		if !nw.HasEdge(u, cycle[(i+1)%len(cycle)]) {
			t.Fatalf("non-edge in cycle at %d", i)
		}
	}
	if _, err := HamiltonianCycle(1); err == nil {
		t.Error("D_1 cycle should fail")
	}
}

func TestAllToAllFacade(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	in := make([][]int, N)
	for i := range in {
		in[i] = make([]int, N)
		for j := range in[i] {
			in[i][j] = 100*i + j
		}
	}
	out, st, err := AllToAll(n, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			if out[j][i] != in[i][j] {
				t.Fatalf("alltoall wrong at %d,%d", i, j)
			}
		}
	}
	if st.Cycles != 2*n {
		t.Errorf("alltoall comm = %d", st.Cycles)
	}
}

func TestSampleSortFacade(t *testing.T) {
	n, k := 2, 8
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(9))
	in := make([]int, k*N)
	for i := range in {
		in[i] = rng.Intn(1000)
	}
	got, st, err := SampleSort(n, k, in)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSorted(got, intLess) || !seq.SameMultiset(in, got, intLess) {
		t.Error("SampleSort failed")
	}
	if st.Cycles != 4*n {
		t.Errorf("sample sort rounds = %d, want %d", st.Cycles, 4*n)
	}
	type rec struct{ k, v int }
	rin := make([]rec, k*N)
	for i := range rin {
		rin[i] = rec{k: rng.Intn(100), v: i}
	}
	rgot, _, err := SampleSortFunc(n, k, rin, func(a, b rec) bool { return a.k < b.k })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rgot); i++ {
		if rgot[i].k < rgot[i-1].k {
			t.Fatal("SampleSortFunc unsorted")
		}
	}
}

func TestAllToAllVFacade(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	in := make([][][]int, N)
	for i := range in {
		in[i] = make([][]int, N)
		in[i][(i+1)%N] = []int{i}
	}
	out, _, err := AllToAllV(n, in)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < N; j++ {
		src := (j + N - 1) % N
		if len(out[j][src]) != 1 || out[j][src][0] != src {
			t.Fatalf("alltoallv wrong at %d", j)
		}
	}
}

func TestNTTFacade(t *testing.T) {
	n := 2
	N := 1 << (2*n - 1)
	in := make([]uint64, N)
	for i := range in {
		in[i] = uint64(i + 1)
	}
	fwd, _, err := NTT(n, in, false)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := NTT(n, fwd, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if back[i] != in[i] {
			t.Fatalf("NTT round trip broke %d", i)
		}
	}
	prod, _, err := PolyMulMod(n, []uint64{1, 1}, []uint64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 3, 1} // (1+x)(1+x)^2 = (1+x)^3
	for i := range want {
		if prod[i] != want[i] {
			t.Fatalf("PolyMulMod = %v", prod)
		}
	}
}

func TestPrefixDegradedFacade(t *testing.T) {
	const n = 4
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(21))
	in := make([]int, N)
	for i := range in {
		in[i] = rng.Intn(100)
	}
	want := seq.ScanInclusive(in, seqSum())
	for f := 0; f < n; f++ {
		plan, err := RandomFaultPlan(n, f, int64(40+f))
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := PrefixDegraded(n, in, plan)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("f=%d: out[%d]=%d, want %d", f, i, out[i], want[i])
			}
		}
		if st.Faults.DownLinks != 2*f {
			t.Errorf("f=%d: DownLinks=%d, want %d", f, st.Faults.DownLinks, 2*f)
		}
	}
	// Diminished prefix through the Func variant, under the max fault load.
	plan, _ := RandomFaultPlan(n, n-1, 8)
	out, _, err := PrefixDegradedFunc(n, in, func() int { return 0 }, func(a, b int) int { return a + b }, false, plan)
	if err != nil {
		t.Fatal(err)
	}
	ex := seq.ScanExclusive(in, seqSum())
	for i := range ex {
		if out[i] != ex[i] {
			t.Fatalf("diminished f=%d: out[%d]=%d, want %d", n-1, i, out[i], ex[i])
		}
	}
}

// TestRuntimeConfigIsolation runs three users of the library at once: a
// serving front-end answering prefix requests on a healthy D_3 shard, a
// Runtime on the worker-pool engine armed with RandomFaultPlan(3, 2, 7),
// and a default Runtime. Execution configuration belongs to one Runtime, so
// the plan must fail the armed Runtime's prefix on a failed link and reach
// nothing else: every served prefix and every default-Runtime prefix and
// sort must match internal/seq. Under -race it also checks that the three
// share no unsynchronized state.
func TestRuntimeConfigIsolation(t *testing.T) {
	const n, rounds = 3, 20
	plan, err := RandomFaultPlan(n, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	armed := runtimeWith(t, "dualcube", n, machine.Config{Sched: machine.SchedWorkerPool, Faults: plan.Spec()})
	healthy, err := NewRuntime(n)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServeConfig{Orders: []int{n}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewServeClient(srv)

	in := make([]int64, healthy.Nodes())
	keys := make([]int64, healthy.Nodes())
	for i := range in {
		in[i] = int64(i*7919%101) - 50
		keys[i] = int64(i * 2654435761 % 97)
	}
	wantPrefix := seq.ScanInclusive(in, monoid.Sum[int64]())
	wantSorted := seq.Sorted(keys, func(a, b int64) bool { return a < b })

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := client.Prefix(n, in)
			if err != nil || !slices.Equal(resp.Data, wantPrefix) {
				t.Errorf("served prefix %d on the healthy shard: err = %v, or wrong result", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, _, err := PrefixOn(armed, in); err == nil || !strings.Contains(err.Error(), "on a failed link") {
				t.Errorf("prefix %d on the armed Runtime: err = %v, want a failed-link error", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			got, _, err := PrefixOn(healthy, in)
			if err != nil || !slices.Equal(got, wantPrefix) {
				t.Errorf("prefix %d on the default Runtime: err = %v, or wrong result", i, err)
				return
			}
			sorted, _, err := SortOn(healthy, keys, Ascending)
			if err != nil || !slices.Equal(sorted, wantSorted) {
				t.Errorf("sort %d on the default Runtime: err = %v, or wrong result", i, err)
				return
			}
		}
	}()
	wg.Wait()
}
