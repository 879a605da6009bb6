// Command dcinfo prints structural information about the dual-cube and the
// comparison networks: the Figure 1/2 cluster listings, the Section 2
// claims table (E2), the recursive-presentation summary (E6), and the
// network comparison of the paper's introduction (E11).
//
// Usage:
//
//	dcinfo -fig 2            # Figure-style cluster listing of D_2
//	dcinfo -claims           # E2 structural claims, n = 1..8
//	dcinfo -compare          # E11 comparison table
//	dcinfo -recursive -n 3   # recursive-presentation mapping of D_3
//	dcinfo -hamiltonian -n 3 # verified Hamiltonian cycle of D_3
//	dcinfo -faulttol         # E19 connectivity / fault-tolerance figures
package main

import (
	"flag"
	"fmt"
	"os"

	"dualcube/internal/embedding"
	"dualcube/internal/experiments"
	"dualcube/internal/topology"
	"dualcube/internal/trace"
)

func main() {
	fig := flag.Int("fig", 0, "print the Figure 1/2-style cluster listing of D_n for the given n")
	claims := flag.Bool("claims", false, "print the E2 structural-claims table")
	compare := flag.Bool("compare", false, "print the E11 network-comparison table")
	recursive := flag.Bool("recursive", false, "print the recursive-presentation mapping (use with -n)")
	hamiltonian := flag.Bool("hamiltonian", false, "print a verified Hamiltonian cycle of D_n (use with -n)")
	faulttol := flag.Bool("faulttol", false, "print the E19 connectivity and fault-tolerance table")
	n := flag.Int("n", 3, "dual-cube order for -recursive / -hamiltonian")
	flag.Parse()

	ran := false
	if *fig > 0 {
		ran = true
		d, err := topology.NewDualCube(*fig)
		if err != nil {
			fatal(err)
		}
		if err := trace.RenderTopology(os.Stdout, d); err != nil {
			fatal(err)
		}
	}
	if *claims {
		ran = true
		printTable(experiments.E2Topology(8, 4))
	}
	if *compare {
		ran = true
		printTable(experiments.E11Compare())
	}
	if *faulttol {
		ran = true
		fmt.Print("Maximum tolerable link faults per topology, derived from each family's\ngeneralized connectivity figures (λ-1 faults provably leave the network\nconnected); the source of every bound is cited below its table.\n\n")
		printTable(experiments.E19TopologyFaultTolerance(6, 20, 2008))
		fmt.Println()
		printTable(experiments.E19FaultTolerance(6, 20, 2008))
	}
	if *recursive {
		ran = true
		if err := printRecursive(*n); err != nil {
			fatal(err)
		}
	}
	if *hamiltonian {
		ran = true
		if err := printHamiltonian(*n); err != nil {
			fatal(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// printHamiltonian constructs, verifies and prints the dilation-1 ring
// embedding of D_n.
func printHamiltonian(n int) error {
	d, err := topology.NewDualCube(n)
	if err != nil {
		return err
	}
	cycle, err := embedding.DualCubeHamiltonianCycle(n)
	if err != nil {
		return err
	}
	if err := embedding.VerifyCycle(d, cycle); err != nil {
		return err
	}
	return trace.RenderHamiltonian(os.Stdout, d, cycle)
}

// printRecursive lists the original-to-recursive ID mapping of D_n and the
// parity rule of each dimension (E6).
func printRecursive(n int) error {
	d, err := topology.NewDualCube(n)
	if err != nil {
		return err
	}
	return trace.RenderRecursive(os.Stdout, d)
}

// printTable prints an experiment table, exiting on generation errors.
func printTable(s string, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Print(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcinfo:", err)
	os.Exit(1)
}
