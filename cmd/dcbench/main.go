// Command dcbench regenerates the experiment tables recorded in
// EXPERIMENTS.md: each table measures one claim of the paper (structure,
// Theorem 1, Theorem 2, baselines, overhead, extensions) on the simulated
// machine.
//
// Usage:
//
//	dcbench                  # run every experiment
//	dcbench -exp E8          # one experiment; the id list in -h comes from
//	                         # the registry (internal/experiments/registry.go)
//	dcbench -faults          # fault sweep: degraded D_prefix on D_4..D_6, f = 0..n-1
//	dcbench -faults -json    # fault sweep as JSON lines (one point per line)
//	dcbench -faults -seed 7  # sweep under a different plan seed
package main

import (
	"flag"
	"fmt"
	"os"

	"dualcube/internal/experiments"
)

func main() {
	// The experiment list comes from the registry so this help text cannot
	// rot as experiments are added.
	exp := flag.String("exp", "all", "experiment id ("+experiments.IDList()+") or 'all'")
	faults := flag.Bool("faults", false, "run the seeded fault sweep (degraded D_prefix, f = 0..n-1 on D_4..D_6)")
	jsonOut := flag.Bool("json", false, "with -faults: emit the fault sweep as JSON lines")
	seed := flag.Int64("seed", 2008, "base seed for the fault-sweep plans")
	flag.Parse()
	if *jsonOut && !*faults {
		fmt.Fprintln(os.Stderr, "dcbench: -json applies to -faults only")
		os.Exit(2)
	}

	var out string
	var err error
	switch {
	case *faults:
		if *jsonOut {
			out, err = experiments.E18FaultSweepJSON(4, 6, *seed)
		} else {
			out, err = experiments.E18FaultSweep(4, 6, *seed)
		}
	default:
		if *exp == "all" {
			out, err = experiments.All()
			break
		}
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "dcbench: unknown experiment %q (known: %s)\n", *exp, experiments.IDList())
			os.Exit(2)
		}
		if e.Run == nil {
			// Benchmarks and the repository benchmark's workloads live
			// outside dcbench; point at the reproduction command instead.
			out = fmt.Sprintf("%s — %s\nreproduce with: %s\n", e.ID, e.Title, e.HowTo)
			break
		}
		opts := experiments.DefaultOptions()
		opts.Seed = *seed
		out, err = e.Run(opts)
	}
	fmt.Print(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		os.Exit(1)
	}
}
