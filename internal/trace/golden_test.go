package trace

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// The golden files pin down the exact text of the reproduced paper figures
// (the same content the cmd/ tools print). Regenerate with:
//
//	go test ./internal/trace -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden figure files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from the golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFigure1Topology(t *testing.T) {
	var sb strings.Builder
	if err := RenderTopology(&sb, topology.MustDualCube(2)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig1_d2.txt", sb.String())
}

func TestGoldenFigure2Topology(t *testing.T) {
	var sb strings.Builder
	if err := RenderTopology(&sb, topology.MustDualCube(3)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2_d3.txt", sb.String())
}

func TestGoldenFigure3PrefixTrace(t *testing.T) {
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
	checkGolden(t, "fig3_d3_prefix.txt", sb.String())
}

func TestGoldenFigures56SortTrace(t *testing.T) {
	// The same workload cmd/dsort uses by default: seed-42 permutation of D_2.
	in := rand.New(rand.NewSource(42)).Perm(8)
	var tr sortnet.Trace[int]
	if _, _, err := sortnet.DSort(machine.Config{}, topology.MustDualCube(2), in, func(a, b int) bool { return a < b }, sortnet.Ascending, &tr); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderSortTrace(&sb, 2, &tr); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig56_d2_sort.txt", sb.String())
}

func TestGoldenRecursiveMapping(t *testing.T) {
	var sb strings.Builder
	if err := RenderRecursive(&sb, topology.MustDualCube(2)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "recursive_d2.txt", sb.String())
}
