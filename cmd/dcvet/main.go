// Command dcvet is the repository's static checker: the repo-specific
// analyzers registered in internal/analysis (statsadd, abortpanic,
// kernelpure, laneparity, schedtopo) plus the schedule-IR verifier
// (internal/schedcheck), which proves every schedule dcomm.Compiled can
// produce for D_2..D_7, and the normal-algorithm sweeps, well-formed
// without running the simulator, and the
// compiler-diagnostics escape/BCE gate (internal/analysis/escgate).
//
// Three modes:
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
//
//	go vet -vettool=$(command -v dcvet) ./...
//
// Vet-tool: speaks the cmd/vet unitchecker protocol (-V=full version probe,
// then one invocation per package with a .cfg file describing sources and
// export data). Only the source analyzers run in this mode — the schedule
// verifier is whole-repository, not per-package — and findings exit 2, the
// convention go vet maps to "diagnostics reported".
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dualcube/internal/analysis"
	"dualcube/internal/analysis/driver"
	"dualcube/internal/analysis/escgate"
	"dualcube/internal/schedcheck"
)

func main() {
	args := os.Args[1:]
	// The go vet driver probes the tool with -V=full before anything else
	// and parses a buildID from the reply for its action cache; hashing our
	// own executable gives an ID that changes exactly when the tool does.
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "-V") {
		id, err := selfHash()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("dcvet version devel buildID=%s\n", id)
		return
	}
	// The vet driver's second probe asks for the tool's flag definitions as
	// a JSON array; dcvet takes no per-analyzer flags in vet-tool mode.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	// A single *.cfg positional argument is the unitchecker handshake.
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(unitcheck(args[len(args)-1]))
	}
	os.Exit(standalone(args))
}

// selfHash returns the hex digest of the running executable.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
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

// vetCfg is the configuration file the go vet driver hands a unitchecker
// tool: one package's sources plus everything needed to type-check them.
type vetCfg struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package under the go vet protocol. Returns the
// process exit code: 0 clean, 1 operational failure, 2 diagnostics found.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dcvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The driver requires the facts file to exist even though these
	// analyzers export none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, and we have none
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkg, err := typecheck(fset, files, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := driver.RunPackage(pkg, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func parseFiles(fset *token.FileSet, cfg vetCfg) ([]*ast.File, error) {
	var out []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// typecheck resolves imports through the cfg's ImportMap/PackageFile tables —
// the export data the go command already compiled for the build.
func typecheck(fset *token.FileSet, files []*ast.File, cfg vetCfg) (*driver.Package, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("dcvet: no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, cfg.Compiler, lookup)}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("dcvet: type-checking %s: %w", cfg.ImportPath, err)
	}
	return &driver.Package{PkgPath: cfg.ImportPath, Fset: fset, Syntax: files, Types: tpkg, TypesInfo: info}, nil
}
