package experiments

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// E14LinkLoads analyzes where the traffic of the two paper algorithms
// actually flows: total messages on cross-edges versus intra-cluster
// edges, and the hottest single link. The dual-cube has only one
// cross-edge per node (that is where its degree saving comes from), so the
// recursive-technique algorithms concentrate load there — the structural
// price behind Theorem 2's 3x factor — while the cluster-technique prefix
// spreads its two cross-edge rounds evenly.
func E14LinkLoads(maxN int) (string, error) {
	t := newTable("E14 — traffic split across link types",
		"algorithm", "n", "messages", "on cross-edges", "on cluster edges",
		"cross share", "max msgs on one link")
	for n := 2; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E14 n=%d: %w", n, err)
		}
		classify := func(src, dst int) string {
			if dst == d.CrossNeighbor(src) {
				return "cross"
			}
			return "cluster"
		}
		in := randInts(int64(n+50), d.Nodes(), 0, 1<<20)

		_, stP, recP, err := prefix.DPrefixRecorded(machine.Config{}, d, in, monoid.Sum[int](), true)
		if err != nil {
			return "", fmt.Errorf("E14 prefix n=%d: %w", n, err)
		}
		splitP := recP.SplitLoads(classify)
		maxP, _ := recP.MaxLinkLoad()
		t.row("D_prefix", itoa(n), i64toa(stP.Messages), itoa(splitP["cross"]), itoa(splitP["cluster"]),
			pct(splitP["cross"], int(stP.Messages)), itoa(maxP))

		_, stS, recS, err := sortnet.DSortRecorded(machine.Config{}, d, in, func(a, b int) bool { return a < b }, sortnet.Ascending)
		if err != nil {
			return "", fmt.Errorf("E14 sort n=%d: %w", n, err)
		}
		splitS := recS.SplitLoads(classify)
		maxS, _ := recS.MaxLinkLoad()
		t.row("D_sort", itoa(n), i64toa(stS.Messages), itoa(splitS["cross"]), itoa(splitS["cluster"]),
			pct(splitS["cross"], int(stS.Messages)), itoa(maxS))
	}
	return t.String(), nil
}

// pct formats a/b as a percentage.
func pct(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(a)/float64(b))
}
