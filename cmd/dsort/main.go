// Command dsort runs the paper's Algorithm 3 (bitonic sort on the
// dual-cube) and prints the step-by-step traces of Figures 5 and 6.
//
// Usage:
//
//	dsort                    # Figures 5/6: sort 8 keys on D_2
//	dsort -n 3 -seed 9       # sort 32 random keys on D_3
//	dsort -desc              # descending order (tag = 1)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dualcube/internal/machine"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
	"dualcube/internal/trace"
)

func main() {
	n := flag.Int("n", 2, "dual-cube order (Figures 5/6 use D_2)")
	seed := flag.Int64("seed", 42, "random permutation seed")
	desc := flag.Bool("desc", false, "sort descending (the paper's tag = 1)")
	spacetime := flag.Bool("spacetime", false, "also print the message space-time diagram (n <= 3)")
	flag.Parse()

	d, err := topology.Shared(*n)
	if err != nil {
		fatal(err)
	}
	in := rand.New(rand.NewSource(*seed)).Perm(d.Nodes())
	ord := sortnet.Ascending
	if *desc {
		ord = sortnet.Descending
	}

	fmt.Printf("bitonic sort on %s (%d nodes, %s):\n\n", d.Name(), d.Nodes(), ord)
	var tr sortnet.Trace[int]
	out, st, err := sortnet.DSort(machine.Config{}, d, in, func(a, b int) bool { return a < b }, ord, &tr)
	if err != nil {
		fatal(err)
	}
	if err := trace.RenderSortTrace(os.Stdout, *n, &tr); err != nil {
		fatal(err)
	}
	fmt.Printf("\nsorted: %v\n", out)
	fmt.Printf("\ncommunication steps: %d (formula %d, Theorem 2 bound %d)\n",
		st.Cycles, sortnet.DSortCommSteps(*n), sortnet.PaperSortCommBound(*n))
	fmt.Printf("comparison rounds:   %d (formula %d, Theorem 2 bound %d)\n",
		st.MaxOps, sortnet.DSortCompSteps(*n), sortnet.PaperSortCompBound(*n))
	fmt.Printf("messages: %d\n", st.Messages)

	if *spacetime {
		_, _, rec, err := sortnet.DSortRecorded(machine.Config{}, d, in, func(a, b int) bool { return a < b }, ord)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nspace-time diagram (S send, R receive, B both):\n")
		if err := rec.RenderSpaceTime(os.Stdout, d.Nodes()); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsort:", err)
	os.Exit(1)
}
