// Package experiments regenerates every evaluation artifact of the paper
// as a markdown table: the structural claims of Section 2 (E1/E2/E11), the
// theorem step counts (E4, E8), the hypercube baselines (E5, E9), the
// emulation-overhead claim (E10), the large-input generalization (E12) and
// the cluster-technique collectives (E13). cmd/dcbench prints these tables;
// EXPERIMENTS.md records one run of them next to the paper's claims.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dualcube/internal/collective"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// table accumulates a markdown table.
type table struct {
	sb strings.Builder
}

func newTable(title string, cols ...string) *table {
	t := &table{}
	fmt.Fprintf(&t.sb, "### %s\n\n", title)
	t.sb.WriteString("| " + strings.Join(cols, " | ") + " |\n")
	seps := make([]string, len(cols))
	for i := range seps {
		seps[i] = "---"
	}
	t.sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	return t
}

func (t *table) row(cells ...string) {
	t.sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
}

func (t *table) String() string { return t.sb.String() }

func itoa(x int) string     { return fmt.Sprintf("%d", x) }
func i64toa(x int64) string { return fmt.Sprintf("%d", x) }

func randInts(seed int64, n, lo, hi int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = lo + rng.Intn(hi-lo+1)
	}
	return out
}

// E2Topology verifies the Section 2 structural claims of D_n for n in
// [1, maxN]: node count, degree, edge count, diameter 2n (BFS-checked up to
// bfsMax), and the closed-form distance formula (spot-checked by BFS).
func E2Topology(maxN, bfsMax int) (string, error) {
	t := newTable("E2 — dual-cube structural claims (Section 2)",
		"n", "nodes 2^(2n-1)", "degree", "edges", "diameter formula", "diameter BFS", "formula = BFS")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E2 n=%d: %w", n, err)
		}
		bfs := "-"
		match := "(not run)"
		if n <= bfsMax {
			got := topology.DiameterBFS(d)
			bfs = itoa(got)
			if got == d.Diameter() {
				match = "yes"
			} else {
				match = "NO"
			}
		}
		t.row(itoa(n), itoa(d.Nodes()), itoa(d.Order()), itoa(topology.EdgeCount(d)),
			itoa(d.Diameter()), bfs, match)
	}
	return t.String(), nil
}

// E4Prefix measures D_prefix against Theorem 1 for n in [1, maxN], with
// the hypercube-emulation ablation in the last column.
func E4Prefix(maxN int) (string, error) {
	t := newTable("E4 — parallel prefix on D_n (Theorem 1)",
		"n", "nodes", "comm measured", "comm bound 2n+1", "comp measured", "comp bound 2n",
		"messages", "emulated comm (ablation)")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E4 n=%d: %w", n, err)
		}
		N := d.Nodes()
		in := randInts(int64(n), N, -1000, 1000)
		_, st, err := prefix.DPrefix(machine.Config{}, d, in, monoid.Sum[int](), true, nil)
		if err != nil {
			return "", fmt.Errorf("E4 n=%d: %w", n, err)
		}
		_, ste, err := prefix.EmulatedCubePrefix(machine.Config{}, d, in, monoid.Sum[int](), true)
		if err != nil {
			return "", fmt.Errorf("E4 emulation n=%d: %w", n, err)
		}
		t.row(itoa(n), itoa(N), itoa(st.Cycles), itoa(prefix.PaperCommBound(n)),
			itoa(st.MaxOps), itoa(prefix.PaperCompBound(n)), i64toa(st.Messages), itoa(ste.Cycles))
	}
	return t.String(), nil
}

// E5CubePrefix measures Algorithm 1 on hypercubes Q_q for q in [0, maxQ]:
// the paper's "optimal in hypercube" baseline (q steps).
func E5CubePrefix(maxQ int) (string, error) {
	t := newTable("E5 — parallel prefix on Q_q (Algorithm 1 baseline)",
		"q", "nodes", "comm measured", "comm expected q", "comp measured")
	for q := 0; q <= maxQ; q++ {
		in := randInts(int64(q+100), 1<<q, -1000, 1000)
		_, st, err := prefix.CubePrefix(machine.Config{}, q, in, monoid.Sum[int](), true)
		if err != nil {
			return "", fmt.Errorf("E5 q=%d: %w", q, err)
		}
		t.row(itoa(q), itoa(1<<q), itoa(st.Cycles), itoa(q), itoa(st.MaxOps))
	}
	return t.String(), nil
}

// E8Sort measures D_sort against Theorem 2 for n in [1, maxN].
func E8Sort(maxN int) (string, error) {
	t := newTable("E8 — bitonic sort on D_n (Theorem 2)",
		"n", "nodes", "comm measured", "comm formula 6n²-7n+2", "comm bound 6n²",
		"comparisons", "comp formula 2n²-n", "comp bound 2n²")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E8 n=%d: %w", n, err)
		}
		N := d.Nodes()
		in := randInts(int64(n+7), N, 0, 1<<20)
		_, st, err := sortnet.DSort(machine.Config{}, d, in, func(a, b int) bool { return a < b }, sortnet.Ascending, nil)
		if err != nil {
			return "", fmt.Errorf("E8 n=%d: %w", n, err)
		}
		t.row(itoa(n), itoa(N), itoa(st.Cycles), itoa(sortnet.DSortCommSteps(n)),
			itoa(sortnet.PaperSortCommBound(n)), itoa(st.MaxOps),
			itoa(sortnet.DSortCompSteps(n)), itoa(sortnet.PaperSortCompBound(n)))
	}
	return t.String(), nil
}

// E9E10CubeSortAndOverhead measures bitonic sort on the equal-sized
// hypercube Q_{2n-1} (E9) and the dual-cube emulation overhead ratio (E10,
// the paper's Section 7 "3 times ... in the worst-case" remark).
func E9E10CubeSortAndOverhead(maxN int) (string, error) {
	t := newTable("E9/E10 — hypercube bitonic baseline and emulation overhead",
		"n", "q=2n-1", "Q_q comm (=q(q+1)/2)", "D_n comm", "overhead ratio", "comparisons equal")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E9 n=%d: %w", n, err)
		}
		q := 2*n - 1
		in := randInts(int64(n+21), 1<<q, 0, 1<<20)
		_, stQ, err := sortnet.CubeSort(machine.Config{}, q, in, func(a, b int) bool { return a < b }, sortnet.Ascending)
		if err != nil {
			return "", fmt.Errorf("E9 n=%d: %w", n, err)
		}
		_, stD, err := sortnet.DSort(machine.Config{}, d, in, func(a, b int) bool { return a < b }, sortnet.Ascending, nil)
		if err != nil {
			return "", fmt.Errorf("E9 D n=%d: %w", n, err)
		}
		ratio := float64(stD.Cycles) / float64(stQ.Cycles)
		eq := "yes"
		if stQ.MaxOps != stD.MaxOps {
			eq = "NO"
		}
		t.row(itoa(n), itoa(q), itoa(stQ.Cycles), itoa(stD.Cycles),
			fmt.Sprintf("%.2f", ratio), eq)
	}
	return t.String(), nil
}

// E11Compare contrasts the dual-cube with the equal-sized hypercube and
// the bounded-degree competitors from the paper's introduction at
// comparable node counts.
func E11Compare() (string, error) {
	t := newTable("E11 — network comparison (introduction)",
		"network", "nodes", "degree", "edges", "diameter", "avg distance")
	makers := []func() (topology.Topology, error){
		func() (topology.Topology, error) { return topology.NewDualCube(3) },
		func() (topology.Topology, error) { return topology.NewHypercube(5) },
		func() (topology.Topology, error) { return topology.NewCCC(3) },
		func() (topology.Topology, error) { return topology.NewButterfly(3) },
		func() (topology.Topology, error) { return topology.NewDeBruijn(5) },
		func() (topology.Topology, error) { return topology.NewShuffleExchange(5) },
		func() (topology.Topology, error) { return topology.NewDualCube(4) },
		func() (topology.Topology, error) { return topology.NewHypercube(7) },
		func() (topology.Topology, error) { return topology.NewCCC(5) },
		func() (topology.Topology, error) { return topology.NewButterfly(5) },
		func() (topology.Topology, error) { return topology.NewDeBruijn(7) },
		func() (topology.Topology, error) { return topology.NewShuffleExchange(7) },
	}
	for _, mk := range makers {
		net, err := mk()
		if err != nil {
			return "", fmt.Errorf("E11: %w", err)
		}
		st := topology.Analyze(net)
		deg := itoa(st.Degree)
		if !st.Regular {
			deg = "≤" + deg
		}
		t.row(st.Name, itoa(st.Nodes), deg, itoa(st.Edges), itoa(st.Diameter),
			fmt.Sprintf("%.3f", st.AvgDist))
	}
	return t.String(), nil
}

// E12Large measures the large-input generalization (future-work item 1):
// prefix and sort with k elements per node — communication steps must not
// depend on k.
func E12Large(n int, ks []int) (string, error) {
	t := newTable(fmt.Sprintf("E12 — inputs larger than the network (D_%d)", n),
		"k (elems/node)", "total elems", "prefix comm", "prefix ok", "sort comm", "sort ok")
	d, err := topology.Shared(n)
	if err != nil {
		return "", fmt.Errorf("E12 n=%d: %w", n, err)
	}
	N := d.Nodes()
	for _, k := range ks {
		in := randInts(int64(k), k*N, -1000, 1000)
		pre, stP, err := prefix.DPrefixLarge(machine.Config{}, d, k, in, monoid.Sum[int](), true)
		if err != nil {
			return "", fmt.Errorf("E12 prefix k=%d: %w", k, err)
		}
		okP := "yes"
		acc := 0
		for i, v := range in {
			acc += v
			if pre[i] != acc {
				okP = "NO"
				break
			}
		}
		sorted, stS, err := sortnet.DSortLarge(machine.Config{}, d, k, in, func(a, b int) bool { return a < b }, sortnet.Ascending)
		if err != nil {
			return "", fmt.Errorf("E12 sort k=%d: %w", k, err)
		}
		okS := "yes"
		for i := 1; i < len(sorted); i++ {
			if sorted[i] < sorted[i-1] {
				okS = "NO"
				break
			}
		}
		t.row(itoa(k), itoa(k*N), itoa(stP.Cycles), okP, itoa(stS.Cycles), okS)
	}
	return t.String(), nil
}

// E13Collectives measures the cluster-technique collectives: every one of
// them must take exactly 2n communication rounds, the diameter of D_n (the
// all-to-all's 2n rounds carry full buffers — latency-optimal; its total
// volume is bandwidth-bound).
func E13Collectives(maxN int) (string, error) {
	t := newTable("E13 — collective communications (future-work item 3)",
		"n", "diameter 2n", "broadcast", "allreduce", "gather", "scatter", "allgather", "alltoall")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E13 n=%d: %w", n, err)
		}
		N := d.Nodes()
		_, stB, err := collective.Broadcast(machine.Config{}, d, N/3, 1)
		if err != nil {
			return "", fmt.Errorf("E13 broadcast n=%d: %w", n, err)
		}
		in := randInts(int64(n+5), N, -100, 100)
		_, stA, err := collective.AllReduce(machine.Config{}, d, in, monoid.Sum[int]())
		if err != nil {
			return "", fmt.Errorf("E13 allreduce n=%d: %w", n, err)
		}
		_, stG, err := collective.Gather(machine.Config{}, d, N/2, in)
		if err != nil {
			return "", fmt.Errorf("E13 gather n=%d: %w", n, err)
		}
		_, stS, err := collective.Scatter(machine.Config{}, d, N/2, in)
		if err != nil {
			return "", fmt.Errorf("E13 scatter n=%d: %w", n, err)
		}
		_, stAG, err := collective.AllGather(machine.Config{}, d, in)
		if err != nil {
			return "", fmt.Errorf("E13 allgather n=%d: %w", n, err)
		}
		atoa := "-"
		if n <= 5 { // the N x N payload matrix gets large beyond this
			mat := make([][]int, N)
			for i := range mat {
				mat[i] = make([]int, N)
				for j := range mat[i] {
					mat[i][j] = i ^ j
				}
			}
			_, st, err := collective.AllToAll(machine.Config{}, d, mat)
			if err != nil {
				return "", fmt.Errorf("E13 alltoall n=%d: %w", n, err)
			}
			atoa = itoa(st.Cycles)
		}
		t.row(itoa(n), itoa(2*n), itoa(stB.Cycles), itoa(stA.Cycles), itoa(stG.Cycles),
			itoa(stS.Cycles), itoa(stAG.Cycles), atoa)
	}
	return t.String(), nil
}

// All (the `dcbench` no-flag run) lives in registry.go beside the
// experiment registry it walks.
