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
//	dcbench -warm            # E20: cold-vs-warm per-call wall time of D_prefix
//	dcbench -warm -n 6 -runs 20  # same sweep, up to D_6, 20 calls per point
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"dualcube/internal/experiments"
)

func main() {
	// The experiment list comes from the registry so this help text cannot
	// rot as experiments are added.
	exp := flag.String("exp", "all", "experiment id ("+experiments.IDList()+") or 'all'")
	faults := flag.Bool("faults", false, "run the seeded fault sweep (degraded D_prefix, f = 0..n-1 on D_4..D_6)")
	jsonOut := flag.Bool("json", false, "with -faults: emit the fault sweep as JSON lines")
	seed := flag.Int64("seed", 2008, "base seed for the fault-sweep plans")
	warm := flag.Bool("warm", false, "run E20: cold-vs-warm per-call wall time of D_prefix (D_4..D_n)")
	maxN := flag.Int("n", 6, "with -warm: largest dual-cube order to sweep")
	runs := flag.Int("runs", 20, "with -warm: calls measured per configuration")
	coldprobe := flag.Int("coldprobe", 0, "internal: time one cold D_prefix call on D_n and print ns (used by -warm subprocesses)")
	warmprobe := flag.Int("warmprobe", 0, "internal: print the median warm D_prefix ns/call on D_n over -runs calls (used by -warm subprocesses)")
	flag.Parse()
	if *jsonOut && !*faults {
		fmt.Fprintln(os.Stderr, "dcbench: -json applies to -faults only")
		os.Exit(2)
	}

	if *coldprobe > 0 {
		d, err := experiments.ColdCallOnce(*coldprobe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			os.Exit(1)
		}
		fmt.Println(d.Nanoseconds())
		return
	}
	if *warmprobe > 0 {
		d, err := experiments.WarmSteadyState(*warmprobe, *runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			os.Exit(1)
		}
		fmt.Println(d.Nanoseconds())
		return
	}

	var out string
	var err error
	switch {
	case *warm:
		out, err = experiments.E20ColdVsWarm(4, *maxN, *runs, freshProcessCold, freshProcessWarm)
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
			// Benchmarks and the serving load generator live outside
			// dcbench; point at the reproduction command instead.
			out = fmt.Sprintf("%s — %s\nreproduce with: %s\n", e.ID, e.Title, e.HowTo)
			break
		}
		opts := experiments.DefaultOptions()
		opts.Seed = *seed
		opts.MaxN = *maxN
		opts.Runs = *runs
		opts.Cold = freshProcessCold
		opts.Warm = freshProcessWarm
		out, err = e.Run(opts)
	}
	fmt.Print(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		os.Exit(1)
	}
}

// freshProcessCold times one cold D_prefix call on D_n in a fresh process by
// re-executing this binary with -coldprobe. Within a warm process the Go
// runtime recycles coroutine stacks and heap spans, so only a fresh process
// measures the true first-call cost the Runtime caches amortize away.
func freshProcessCold(n int) (time.Duration, error) {
	return probe("cold", "-coldprobe", strconv.Itoa(n))
}

// freshProcessWarm measures the median warm D_prefix ns/call on D_n in a
// fresh subprocess via -warmprobe, so cold and warm run in identical pristine
// processes: a process that has already swept smaller orders carries their
// heap into the collector's pacing and inflates warm samples by several
// percent.
func freshProcessWarm(n, runs int) (time.Duration, error) {
	return probe("warm", "-warmprobe", strconv.Itoa(n), "-runs", strconv.Itoa(runs))
}

func probe(kind string, args ...string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	raw, err := exec.Command(exe, args...).Output()
	if err != nil {
		return 0, fmt.Errorf("%s probe subprocess: %w", kind, err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s probe output %q: %w", kind, raw, err)
	}
	return time.Duration(ns), nil
}
