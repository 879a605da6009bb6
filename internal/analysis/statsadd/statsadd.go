// Package statsadd forbids field-wise merging of machine.Stats (and its
// FaultStats sub-struct): combining two phases' statistics must go through
// Stats.Add. An earlier samplesort revision merged phases with a bitwise OR
// per field, which silently corrupts every count — exactly the bug class this
// analyzer pins down. Stats.Add also carries the node-count consistency check
// and the fault-breakdown carry-through rules that ad-hoc arithmetic skips.
package statsadd

import (
	"go/ast"
	"go/token"
	"go/types"

	"dualcube/internal/analysis/driver"
)

// Analyzer is the statsadd checker.
var Analyzer = &driver.Analyzer{
	Name: "statsadd",
	Doc: "report field-wise +/| merging of two machine.Stats values; phases " +
		"must be combined with Stats.Add",
	Run: run,
}

func run(pass *driver.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isAddImpl(pass, fd) {
				continue // the one blessed implementation site
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

// isAddImpl reports whether fd is machine's own Stats.Add or FaultStats.add —
// the methods that implement the merge and legitimately touch fields pairwise.
func isAddImpl(pass *driver.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	if fd.Name.Name != "Add" && fd.Name.Name != "add" {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	return driver.IsNamed(t, "internal/machine", "Stats") ||
		driver.IsNamed(t, "internal/machine", "FaultStats")
}

func checkFunc(pass *driver.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.ADD && x.Op != token.OR {
				return true
			}
			if field, ok := mergesStatsFields(pass, x.X, x.Y); ok {
				pass.Reportf(x.Pos(), "field-wise %s of machine.Stats field %s merges two phases' statistics; use Stats.Add", x.Op, field)
			}
		case *ast.AssignStmt:
			if x.Tok != token.ADD_ASSIGN && x.Tok != token.OR_ASSIGN {
				return true
			}
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			if field, ok := mergesStatsFields(pass, x.Lhs[0], x.Rhs[0]); ok {
				op := "+="
				if x.Tok == token.OR_ASSIGN {
					op = "|="
				}
				pass.Reportf(x.Pos(), "field-wise %s of machine.Stats field %s merges two phases' statistics; use Stats.Add", op, field)
			}
		}
		return true
	})
}

// mergesStatsFields reports whether a and b are selections of the same field
// of two machine.Stats (or FaultStats) values — the signature of a hand-rolled
// merge. Scalar adjustments like st.MaxOps += k stay legal: only expressions
// whose BOTH sides read a Stats field of the same name are flagged.
func mergesStatsFields(pass *driver.Pass, a, b ast.Expr) (string, bool) {
	fa, ok := statsField(pass, a)
	if !ok {
		return "", false
	}
	fb, ok := statsField(pass, b)
	if !ok || fa != fb {
		return "", false
	}
	return fa, true
}

// statsField returns the field name if e selects a field of machine.Stats or
// machine.FaultStats (through any depth, so st.Faults.DownLinks counts).
func statsField(pass *driver.Pass, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	recv := selection.Recv()
	if driver.IsNamed(recv, "internal/machine", "Stats") ||
		driver.IsNamed(recv, "internal/machine", "FaultStats") {
		return sel.Sel.Name, true
	}
	return "", false
}
