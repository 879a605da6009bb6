// Package abortpanic enforces the error discipline around panics. The
// simulator has exactly one sanctioned panic path: internal/machine's
// abortPanic protocol, where the engine's per-node failf records the failure
// and panics an abortPanic value that the scheduler recovers into
// RunEngine's returned error. Any other panic in library code either crashes the
// process from a node coroutine (bypassing the engine's recovery and
// watchdog) or turns a validatable input problem into an unrecoverable
// crash for the caller — conditions that must instead surface as returned
// errors in the repository's unified validation wording.
//
// Two escapes remain legal without annotation:
//
//   - panics of the machine package's abortPanic type (the protocol itself);
//   - panics inside Must* functions, the documented panicking wrappers over
//     error-returning constructors.
//
// Anything else needs an explicit "//dcvet:allow abortpanic -- reason"
// directive; the repository reserves those for API-misuse guards (e.g.
// Stats.Add combining phases of different machines) where no error channel
// exists by design.
package abortpanic

import (
	"go/ast"
	"go/types"
	"strings"

	"dualcube/internal/analysis/driver"
)

// Analyzer is the abortpanic checker.
var Analyzer = &driver.Analyzer{
	Name: "abortpanic",
	Doc: "report raw panics outside the machine abortPanic protocol and Must* " +
		"wrappers; library code must return errors",
	Run: run,
}

func run(pass *driver.Pass) (any, error) {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests may panic freely
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "Must") {
				continue // documented panicking wrapper
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *driver.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "panic" {
			return true
		}
		if driver.IsNamed(pass.TypesInfo.TypeOf(call.Args[0]), "internal/machine", "abortPanic") {
			return true // the sanctioned protocol
		}
		pass.Reportf(call.Pos(), "raw panic outside the abortPanic protocol; return an error")
		return true
	})
}
