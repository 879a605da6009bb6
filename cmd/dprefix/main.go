// Command dprefix runs the paper's Algorithm 2 (parallel prefix on the
// dual-cube) and prints the six-panel trace of Figure 3.
//
// Usage:
//
//	dprefix                  # Figure 3: prefix sums of 32 ones on D_3
//	dprefix -n 2 -input ramp # prefix sums of 1..8 on D_2
//	dprefix -input random -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/topology"
	"dualcube/internal/trace"
)

func main() {
	n := flag.Int("n", 3, "dual-cube order (Figure 3 uses D_3)")
	input := flag.String("input", "ones", "input data: ones | ramp | random")
	seed := flag.Int64("seed", 1, "seed for -input random")
	diminished := flag.Bool("diminished", false, "compute the diminished (exclusive) prefix")
	spacetime := flag.Bool("spacetime", false, "also print the message space-time diagram (n <= 3)")
	flag.Parse()

	d, err := topology.Shared(*n)
	if err != nil {
		fatal(err)
	}
	in := make([]int, d.Nodes())
	switch *input {
	case "ones":
		for i := range in {
			in[i] = 1
		}
	case "ramp":
		for i := range in {
			in[i] = i + 1
		}
	case "random":
		rng := rand.New(rand.NewSource(*seed))
		for i := range in {
			in[i] = rng.Intn(10)
		}
	default:
		fatal(fmt.Errorf("unknown -input %q", *input))
	}

	fmt.Printf("parallel prefix (sum) on %s: %d nodes, input %s\n\n", d.Name(), d.Nodes(), *input)
	var tr prefix.Trace[int]
	out, st, err := prefix.DPrefix(machine.Config{}, d, in, monoid.Sum[int](), !*diminished, &tr)
	if err != nil {
		fatal(err)
	}
	if err := trace.RenderPrefixTrace(os.Stdout, d, &tr); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult: %v\n", out)
	fmt.Printf("\ncommunication steps: %d (Theorem 1 bound %d)\n", st.Cycles, prefix.PaperCommBound(*n))
	fmt.Printf("computation rounds:  %d (Theorem 1 bound %d)\n", st.MaxOps, prefix.PaperCompBound(*n))
	fmt.Printf("messages: %d\n", st.Messages)

	if *spacetime {
		_, _, rec, err := prefix.DPrefixRecorded(machine.Config{}, d, in, monoid.Sum[int](), !*diminished)
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
	fmt.Fprintln(os.Stderr, "dprefix:", err)
	os.Exit(1)
}
