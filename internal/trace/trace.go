// Package trace renders the worked examples of the paper as text: the
// six-panel prefix-sum trace of Figure 3, the D_sort traces of Figures 5
// and 6, and the cluster-structured topology listings of Figures 1 and 2.
package trace

import (
	"fmt"
	"io"
	"strings"

	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// RenderTopology writes a Figure 1/2-style structural listing of D_n: each
// cluster with its members (address, local ID) and each node's cross
// neighbor.
func RenderTopology(w io.Writer, d *topology.DualCube) error {
	if _, err := fmt.Fprintf(w, "%s: %d nodes, degree %d, %d clusters per class (each a Q_%d), diameter %d\n",
		d.Name(), d.Nodes(), d.Order(), d.ClustersPerClass(), d.ClusterDim(), d.Diameter()); err != nil {
		return err
	}
	bits := d.AddressBits()
	for class := 0; class <= 1; class++ {
		fmt.Fprintf(w, "class %d:\n", class)
		for cl := 0; cl < d.ClustersPerClass(); cl++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "  cluster %d:", cl)
			for _, u := range d.ClusterMembers(class, cl) {
				fmt.Fprintf(&sb, "  %0*b(x%d)", bits, u, d.CrossNeighbor(u))
			}
			if _, err := fmt.Fprintln(w, sb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderPrefixTrace writes the six panels of Figure 3 for a D_prefix run
// on D_n: each panel shows the s values (and, where it aids reading, the
// t values) grouped by block, i.e. by cluster in element order.
func RenderPrefixTrace(w io.Writer, d *topology.DualCube, tr *prefix.Trace[int]) error {
	blk := d.ClusterSize()
	for pi, ph := range tr.Phases {
		if _, err := fmt.Fprintf(w, "%s\n", ph.Label); err != nil {
			return err
		}
		writeRow := func(name string, vals []int) {
			var sb strings.Builder
			fmt.Fprintf(&sb, "  %s:", name)
			for i, v := range vals {
				if i%blk == 0 {
					sb.WriteString(" |")
				}
				fmt.Fprintf(&sb, " %3d", v)
			}
			sb.WriteString(" |")
			fmt.Fprintln(w, sb.String())
		}
		writeRow("s", ph.S)
		// The t row is informative for the intermediate phases only.
		if pi >= 1 && pi <= 3 {
			writeRow("t", ph.T)
		}
	}
	return nil
}

// RenderSortTrace writes a Figure 5/6-style listing of a D_sort run: one
// row of keys (recursive-ID order) per compare-exchange step. Steps up to
// the last half-merge correspond to Figure 5 (generating the bitonic
// sequence); the final merge corresponds to Figure 6.
func RenderSortTrace(w io.Writer, n int, tr *sortnet.Trace[int]) error {
	finalMergeStart := -1
	for i, st := range tr.Steps {
		if st.Level == n && strings.Contains(st.Label, "final-merge") {
			finalMergeStart = i
			break
		}
	}
	for i, st := range tr.Steps {
		if i == 1 && len(tr.Steps) > 1 {
			fmt.Fprintf(w, "-- generate bitonic sequence (Figure 5) --\n")
		}
		if i == finalMergeStart {
			fmt.Fprintf(w, "-- sort bitonic sequence (Figure 6) --\n")
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-28s", st.Label)
		for _, k := range st.Keys {
			fmt.Fprintf(&sb, " %3d", k)
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderRecursive writes the original-to-recursive ID mapping of D_n with
// the dimension-parity rule summary (experiment E6).
func RenderRecursive(w io.Writer, d *topology.DualCube) error {
	bits := d.AddressBits()
	if _, err := fmt.Fprintf(w, "%s recursive presentation: %d dimensions; dim 0 = cross-edge;\n", d.Name(), d.RecDims()); err != nil {
		return err
	}
	fmt.Fprintf(w, "dim j>0 is a direct link in class j%%2 (even dims in class 0, odd dims in class 1)\n\n")
	fmt.Fprintf(w, "%-*s  %-*s  class  sub-dual-cube\n", bits+8, "original", bits+10, "recursive")
	for u := 0; u < d.Nodes(); u++ {
		r := d.ToRecursive(u)
		sub := "-"
		if d.Order() >= 2 {
			sub = fmt.Sprintf("%d", d.RecSubCube(r))
		}
		if _, err := fmt.Fprintf(w, "%0*b (%2d)  %0*b (%2d)    %d      %s\n", bits, u, u, bits, r, r, d.Class(u), sub); err != nil {
			return err
		}
	}
	return nil
}

// RenderHamiltonian writes a Hamiltonian cycle of D_n, 16 nodes per line
// (experiment E15).
func RenderHamiltonian(w io.Writer, d *topology.DualCube, cycle []topology.NodeID) error {
	if _, err := fmt.Fprintf(w, "Hamiltonian cycle of %s (%d nodes, dilation 1):\n", d.Name(), len(cycle)); err != nil {
		return err
	}
	for i, u := range cycle {
		if i > 0 && i%16 == 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%4d", u)
	}
	_, err := fmt.Fprintln(w)
	return err
}
