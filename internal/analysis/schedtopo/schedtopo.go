// Package schedtopo guards the topology-genericity of the schedule builder.
// Package dcomm compiles communication schedules for every Comm family —
// dual-cube, odd hypercube, Z-cube — so it must speak only the interfaces
// (topology.Topology, topology.Comm). A reference to the concrete
// *topology.DualCube inside the builder silently re-specializes the pipeline
// to one family: the code still compiles, every dual-cube test still passes,
// and the regression surfaces only when a Z-cube or hypercube schedule is
// requested.
//
// The analyzer inspects packages whose import path ends in "/dcomm" (the
// schedule builder, and the analysistest fixture standing in for it) and
// reports every use of an object from internal/topology that exposes the
// concrete DualCube type: the type name itself (declarations, assertions,
// conversions), functions whose signature mentions *DualCube (NewDualCube,
// MustDualCube, Shared, ZCube.Skeleton, ...), and variables or fields typed
// by it. Values obtained from such objects are transitively
// covered — a *DualCube-typed local can only be introduced through one of
// the flagged forms.
package schedtopo

import (
	"go/ast"
	"go/types"
	"strings"

	"dualcube/internal/analysis/driver"
)

// Analyzer is the schedtopo checker.
var Analyzer = &driver.Analyzer{
	Name: "schedtopo",
	Doc: "report concrete topology.DualCube use inside the schedule builder (dcomm), " +
		"which must stay generic over topology.Comm",
	Run: run,
}

// builderPkg reports whether path names the schedule-builder package: the
// repository's internal/dcomm, or a fixture directory presenting itself
// under the same terminal path element.
func builderPkg(path string) bool {
	return path == "dcomm" || strings.HasSuffix(path, "/dcomm")
}

func run(pass *driver.Pass) (any, error) {
	if !builderPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !driver.FromPath(obj, "internal/topology") {
				return true
			}
			switch x := obj.(type) {
			case *types.TypeName:
				if x.Name() == "DualCube" {
					pass.Reportf(id.Pos(), "schedule builder references concrete type topology.DualCube; dcomm must stay generic over topology.Comm")
				}
			case *types.Func:
				if mentionsDualCube(x.Type(), nil) {
					pass.Reportf(id.Pos(), "schedule builder calls topology.%s, whose signature exposes the concrete *topology.DualCube; dcomm must stay generic over topology.Comm", x.Name())
				}
			case *types.Var:
				if mentionsDualCube(x.Type(), nil) {
					pass.Reportf(id.Pos(), "schedule builder uses topology.%s of concrete type %s; dcomm must stay generic over topology.Comm", x.Name(), x.Type())
				}
			}
			return true
		})
	}
	return nil, nil
}

// mentionsDualCube reports whether t's structure reaches the named type
// topology.DualCube without crossing another named type's definition: it
// unwraps pointers, containers, tuples and signatures, so a function whose
// parameter or result is *DualCube is caught, while one trafficking only in
// the Comm interfaces is not. seen breaks recursive types.
func mentionsDualCube(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch x := types.Unalias(t).(type) {
	case *types.Named:
		return driver.IsNamed(x, "internal/topology", "DualCube")
	case *types.Pointer:
		return mentionsDualCube(x.Elem(), seen)
	case *types.Slice:
		return mentionsDualCube(x.Elem(), seen)
	case *types.Array:
		return mentionsDualCube(x.Elem(), seen)
	case *types.Map:
		return mentionsDualCube(x.Key(), seen) || mentionsDualCube(x.Elem(), seen)
	case *types.Chan:
		return mentionsDualCube(x.Elem(), seen)
	case *types.Tuple:
		for i := 0; i < x.Len(); i++ {
			if mentionsDualCube(x.At(i).Type(), seen) {
				return true
			}
		}
	case *types.Signature:
		return mentionsDualCube(x.Params(), seen) || mentionsDualCube(x.Results(), seen) ||
			(x.Recv() != nil && mentionsDualCube(x.Recv().Type(), seen))
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if mentionsDualCube(x.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
