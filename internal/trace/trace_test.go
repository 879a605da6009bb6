package trace

import (
	"strings"
	"testing"

	"dualcube/internal/embedding"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

func TestRenderTopology(t *testing.T) {
	var sb strings.Builder
	d := topology.MustDualCube(2)
	if err := RenderTopology(&sb, d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"D_2: 8 nodes, degree 2, 2 clusters per class (each a Q_1), diameter 4",
		"class 0:",
		"class 1:",
		"cluster 0:",
		"000(x4)", // node 0, cross neighbor 4
		"111(x3)", // node 7, cross neighbor 3
	} {
		if !strings.Contains(out, want) {
			t.Errorf("topology rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderPrefixTraceFigure3(t *testing.T) {
	// Figure 3's workload: prefix sums over 32 elements on D_3.
	d := topology.MustDualCube(3)
	in := make([]int, d.Nodes())
	for i := range in {
		in[i] = 1
	}
	var tr prefix.Trace[int]
	if _, _, err := prefix.DPrefix(machine.Config{}, topology.MustDualCube(3), in, monoid.Sum[int](), true, &tr); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderPrefixTrace(&sb, d, &tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"(a) original data distribution",
		"(b) prefix inside cluster",
		"(c) exchange t via cross-edge",
		"(d) prefix of totals inside cluster",
		"(e) get s' and prefix one more time",
		"(f) final result",
		"  32 |", // the last prefix value
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prefix trace missing %q:\n%s", want, out)
		}
	}
	// Six panels; s-row per panel plus t-rows for panels b-d.
	if got := strings.Count(out, "  s:"); got != 6 {
		t.Errorf("expected 6 s-rows, got %d", got)
	}
	if got := strings.Count(out, "  t:"); got != 3 {
		t.Errorf("expected 3 t-rows, got %d", got)
	}
}

func TestRenderSortTraceFigures56(t *testing.T) {
	in := []int{5, 3, 7, 1, 6, 0, 4, 2}
	var tr sortnet.Trace[int]
	if _, _, err := sortnet.DSort(machine.Config{}, topology.MustDualCube(2), in, func(a, b int) bool { return a < b }, sortnet.Ascending, &tr); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderSortTrace(&sb, 2, &tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"input",
		"-- generate bitonic sequence (Figure 5) --",
		"-- sort bitonic sequence (Figure 6) --",
		"level 1 base-sort dim 0",
		"level 2 half-merge dim 1",
		"level 2 final-merge dim 2",
		"   0   1   2   3   4   5   6   7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sort trace missing %q:\n%s", want, out)
		}
	}
}

func TestRenderRecursive(t *testing.T) {
	var sb strings.Builder
	d := topology.MustDualCube(2)
	if err := RenderRecursive(&sb, d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"D_2 recursive presentation: 3 dimensions",
		"original",
		"recursive",
		"000 ( 0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("recursive rendering missing %q:\n%s", want, out)
		}
	}
	// Every node listed once.
	if got := strings.Count(out, "\n"); got < d.Nodes() {
		t.Errorf("expected at least %d lines, got %d", d.Nodes(), got)
	}
}

func TestRenderHamiltonian(t *testing.T) {
	var sb strings.Builder
	d := topology.MustDualCube(3)
	cycle, err := embedding.DualCubeHamiltonianCycle(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderHamiltonian(&sb, d, cycle); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Hamiltonian cycle of D_3 (32 nodes, dilation 1):") {
		t.Errorf("hamiltonian rendering header missing:\n%s", out)
	}
	// Two 16-node rows.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, " ") && len(strings.Fields(line)) == 16 {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("expected 2 rows of 16 nodes, got %d:\n%s", rows, out)
	}
}
