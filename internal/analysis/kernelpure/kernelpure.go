// Package kernelpure checks the allocation and determinism discipline of
// direct-executor kernel bodies: any function taking a *machine.DirectCtx
// parameter (Produce, Absorb, Local and their helpers) runs inside
// RunDirect's per-step hot loop, once per node per step, in every run at
// once. A single stray allocation there multiplies by nodes×steps
// and shows up directly in the alloc guards and the escgate budgets; a
// nondeterministic construct (map iteration, wall clock, rand) breaks the
// three-way backend equivalence the differential and fuzz tests pin.
//
// The checker therefore rejects, inside kernel bodies:
//
//   - allocation: append growth, make/new, slice or map composite literals,
//     closures (FuncLit), string concatenation, conversions that box a value
//     into an interface;
//   - nondeterminism and side channels: map reads/writes/iteration/delete,
//     calls into fmt, errors, time, math/rand, os and log, goroutine spawns,
//     channel operations;
//   - shared mutable state: assignments to package-level variables (the
//     kernels of concurrent runs share them; only per-node kernel state is
//     safe).
//
// internal/machine itself is exempt: the executor's protocol-error paths
// legitimately format errors (they fire at most once per run, not per step),
// and its real escape behavior is budgeted by escgate instead.
//
// Kernels that are deliberately not zero-alloc yet — the v-collectives build
// variable-size bundles as per-node slices pending the zero-alloc payload
// plane (ROADMAP) — carry "//dcvet:allow kernelpure -- <why>" suppressions,
// which double as the worklist for that migration.
package kernelpure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dualcube/internal/analysis/driver"
)

// Analyzer is the kernelpure checker.
var Analyzer = &driver.Analyzer{
	Name: "kernelpure",
	Doc: "report allocating or nondeterministic constructs (append, make, composite " +
		"literals, closures, maps, string concat, fmt/time/rand calls, global writes) " +
		"inside functions taking a *machine.DirectCtx — the direct executor's per-step " +
		"hot path must be zero-alloc and deterministic",
	Run: run,
}

// impurePackages maps forbidden import paths to why a kernel body must not
// call into them.
var impurePackages = map[string]string{
	"fmt":          "formatting allocates; record an error index and format it after the run",
	"errors":       "error construction allocates; record an error index and format it after the run",
	"time":         "wall-clock reads are nondeterministic across backends and runs",
	"math/rand":    "unseeded randomness breaks the direct/engine differential equivalence",
	"math/rand/v2": "unseeded randomness breaks the direct/engine differential equivalence",
	"os":           "kernel bodies must not touch the process environment",
	"log":          "logging allocates and serializes concurrent runs",
}

func run(pass *driver.Pass) (any, error) {
	// The executor package is exempt: its protocol-error paths format errors
	// (once per run, not per step) and escgate budgets its real escapes.
	if strings.HasSuffix(pass.Pkg.Path(), "internal/machine") {
		return nil, nil
	}
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body != nil && takesDirectCtx(pass, ft) {
				checkBody(pass, body, reported)
			}
			return true
		})
	}
	return nil, nil
}

// takesDirectCtx reports whether the function type has a *machine.DirectCtx
// param — the signature that marks a direct-executor kernel body or helper.
func takesDirectCtx(pass *driver.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if _, isPtr := tv.Type.(*types.Pointer); isPtr && driver.IsNamed(tv.Type, "internal/machine", "DirectCtx") {
			return true
		}
	}
	return false
}

// checkBody walks one kernel body. Nested closures are flagged at their
// definition (the closure itself is the allocation) and not descended into.
func checkBody(pass *driver.Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "kernel body defines a closure; closures allocate and capture loop variables — hoist the function into the kernel constructor")
			return false
		case *ast.GoStmt:
			report(x.Pos(), "kernel body spawns a goroutine; RunDirect owns the worker parallelism")
		case *ast.SelectStmt:
			report(x.Pos(), "kernel body uses select; kernels communicate only through Produce/Absorb payloads")
		case *ast.SendStmt:
			report(x.Pos(), "kernel body sends on a channel; kernels communicate only through Produce/Absorb payloads")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				report(x.Pos(), "kernel body receives from a channel; kernels communicate only through Produce/Absorb payloads")
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "kernel body allocates a slice literal; preallocate the buffer in the kernel constructor")
				case *types.Map:
					report(x.Pos(), "kernel body allocates a map literal; use dense arrays indexed by node")
				}
			}
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(x.Pos(), "kernel body indexes a map; map access hashes and may allocate — use dense arrays indexed by node")
				}
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(x.Pos(), "kernel body ranges over a map; iteration order is nondeterministic and breaks backend equivalence")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypesInfo.TypeOf(x)) {
				report(x.Pos(), "kernel body concatenates strings, which allocates; format text outside the hot path")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(pass.TypesInfo.TypeOf(x.Lhs[0])) {
				report(x.Pos(), "kernel body concatenates strings, which allocates; format text outside the hot path")
			}
			for _, lhs := range x.Lhs {
				checkGlobalWrite(pass, lhs, report)
			}
		case *ast.IncDecStmt:
			checkGlobalWrite(pass, x.X, report)
		case *ast.CallExpr:
			checkCall(pass, x, report)
		}
		return true
	})
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkGlobalWrite flags an assignment target that resolves to a
// package-level variable.
func checkGlobalWrite(pass *driver.Pass, lhs ast.Expr, report func(token.Pos, string, ...any)) {
	var id *ast.Ident
	switch x := lhs.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		report(lhs.Pos(), "kernel body writes package-level variable %s; kernels of concurrent runs share it, so they must only mutate per-node kernel state", v.Name())
	}
}

// checkCall flags allocating builtins, calls into impure packages, and
// conversions that box a value into an interface.
func checkCall(pass *driver.Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call.Pos(), "kernel body grows a slice with append; the hot path must write into state preallocated by the kernel constructor")
			case "make":
				report(call.Pos(), "kernel body allocates with make; preallocate the buffer in the kernel constructor")
			case "new":
				report(call.Pos(), "kernel body allocates with new; preallocate the value in the kernel constructor")
			case "delete":
				report(call.Pos(), "kernel body deletes from a map; use dense arrays indexed by node")
			}
			return
		}
	case *ast.SelectorExpr:
		if path, name, ok := driver.PkgFuncCall(pass.TypesInfo, call); ok {
			if why, bad := impurePackages[path]; bad {
				report(call.Pos(), "kernel body calls %s.%s; %s", path, name, why)
			}
			return
		}
		_ = fun
	}
	// A call expression whose Fun is a type is a conversion; converting a
	// concrete value to an interface type boxes it on the heap.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if at := pass.TypesInfo.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				report(call.Pos(), "kernel body converts a value to an interface, which boxes it on the heap; keep kernel state concrete")
			}
		}
	}
}
