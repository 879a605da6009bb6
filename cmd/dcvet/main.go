// Command dcvet is the repository's static checker: the repo-specific
// analyzers registered in internal/analysis (statsadd, abortpanic,
// kernelpure, laneparity, schedtopo) plus the schedule-IR verifier
// (internal/schedcheck), which proves every schedule dcomm.Compiled can
// produce for D_2..D_7, and the normal-algorithm sweeps, well-formed
// without running the simulator, and the
// compiler-diagnostics escape/BCE gate (internal/analysis/escgate).
//
// Two modes:
//
//	dcvet [flags] [packages]
//
// Standalone: loads the named packages (default ./...) of the enclosing
// module, runs every analyzer, then runs the schedule verifier. Exits 1 if
// any diagnostic is reported, 2 on operational failure.
//
//	dcvet -escgate [-json] [-update]
//
// Escape gate: rebuilds the module with -m and BCE diagnostics, attributes
// them to functions, and checks the checked-in budget
// (internal/analysis/escgate/testdata/escbudget.json). -json writes the
// machine-readable report to stdout; -update re-baselines the budgeted
// ceilings (never the zero list) to the measured actuals.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dualcube/internal/analysis"
	"dualcube/internal/analysis/driver"
	"dualcube/internal/analysis/escgate"
	"dualcube/internal/schedcheck"
)

func main() {
	os.Exit(standalone(os.Args[1:]))
}

// standalone runs dcvet over module packages plus the schedule verifier.
func standalone(args []string) int {
	fs := flag.NewFlagSet("dcvet", flag.ExitOnError)
	minOrder := fs.Int("minorder", 2, "smallest dual-cube order the schedule verifier covers")
	maxOrder := fs.Int("maxorder", 7, "largest dual-cube order the schedule verifier covers")
	noSched := fs.Bool("nosched", false, "skip the schedule-IR verifier")
	escGate := fs.Bool("escgate", false, "run the escape/BCE budget gate instead of the analyzers")
	jsonOut := fs.Bool("json", false, "with -escgate: write the machine-readable report to stdout")
	update := fs.Bool("update", false, "with -escgate: re-baseline budgeted ceilings to the measured actuals")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dcvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := driver.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *escGate {
		return runEscgate(root, *jsonOut, *update)
	}
	pkgs, err := driver.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := driver.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}

	failed := len(diags) > 0
	if !*noSched {
		if err := schedcheck.Verify(*minOrder, *maxOrder); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runEscgate executes the escape/BCE budget gate. Exit codes match the
// analyzer path: 0 clean, 1 budget failures, 2 operational failure.
func runEscgate(root string, jsonOut, update bool) int {
	modPath, err := modulePath(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := escgate.Run(root, modPath, escgate.Options{Update: update})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if res.Updated {
		fmt.Fprintf(os.Stderr, "dcvet: escgate budget re-baselined in %s\n", escgate.BudgetPath(root))
	}
	for _, n := range res.Notices {
		fmt.Fprintf(os.Stderr, "dcvet: escgate note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "dcvet: escgate: %s\n", f)
	}
	if jsonOut {
		if err := res.Report.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		t := res.Report.Totals
		fmt.Fprintf(os.Stderr, "dcvet: escgate (go %s): %d escapes, %d bounds checks (%d in loops) module-wide; %d tracked functions, %d failure(s)\n",
			res.Report.GoVersion, t.Escapes, t.Bounds, t.LoopBounds, len(res.Report.Tracked), len(res.Failures))
	}
	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("dcvet: no module line in %s/go.mod", root)
}
