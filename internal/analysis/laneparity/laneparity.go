// Package laneparity machine-checks the "statement-for-statement mirror"
// invariant between each batched lane kernel and its single-lane sibling.
// The serving front-end's correctness claim — a batched pass is
// byte-identical to k unbatched passes — rests on lane l of every lane
// kernel computing exactly what the single-lane kernel computes, in the same
// combine order. Until this analyzer, that invariant was comment-enforced
// ("mirrors ... statement for statement") and pinned only dynamically by the
// lane differential tests; a drift that happens to agree on the tested
// monoids (say, swapping Combine argument order, which commutative monoids
// hide) would survive. laneparity diffs the normalized ASTs instead, so the
// mirror holds for every monoid by construction.
//
// Normalization maps both kernels onto one canonical form:
//
//   - the receiver prints as R, params by position (step index STEP, node U,
//     payload V) — so prefixKernel's `k` and lanePrefixKernel's `step` agree;
//   - single-assignment locals are inlined (m := pk.m, t := pk.t[u*k:...]);
//   - index and slice expressions over kernel state erase to the bare field
//     (pk.t[u], t[l], pk.out[l][idx], pk.t[u*k:(u+1)*k] all print as R.t),
//     which is exactly the lane widening: element-major vs node-major
//     indexing is the intended difference, everything else must agree;
//   - lane loops (for l := 0; l < k; l++ and for l, kv := range row) are
//     stripped, their bodies kept;
//   - the machine.Lanes staging idiom (row := lanes.Row(step,u)[:k];
//     copy(row, X); return role, row) is folded into direct returns of X,
//     and copy(dst, src) over state rows becomes dst = src;
//   - guard-only early returns are inverted into enclosing guards, and
//     per-pair trace hooks (snap) plus self-assignments are dropped.
//
// Each registered pair lists its methods with a comparison mode:
//
//   - mirror: the guarded effect sequences must be identical, and the
//     guard→(role, payload) return maps must agree (arms whose payload equals
//     the default arm's may be merged, as lanePrefixKernel.Produce does);
//   - roles: the lane kernel factors the role ladder into its own method
//     (LaneBroadcastKernel.role) — compare it against the single-lane
//     Produce with payloads stripped, guard stacks compared exactly;
//   - orient: the sort pair resolves the compare direction differently by
//     design (exchKernel through mergeDir, LaneSortKernel branching on the
//     step's orientation), so structural equality is wrong; instead
//     every keepMinAt-guarded compare must keep the minimum on the keep-min
//     branch (less(V, key)) and the maximum on the other (less(key, V)), on
//     both sides — the orientation a drift would silently corrupt.
//
// A genuine, justified divergence is suppressed with
// "//dcvet:allow laneparity -- <why>" on the reported line.
package laneparity

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"dualcube/internal/analysis/driver"
)

// Analyzer is the laneparity checker.
var Analyzer = &driver.Analyzer{
	Name: "laneparity",
	Doc: "diff each batched lane kernel against its single-lane sibling on " +
		"normalized ASTs (lane loops stripped, state indexing erased, payload " +
		"staging folded) and report any statement, guard, payload or " +
		"compare-orientation drift — the serving layer's batched == unbatched " +
		"guarantee is exactly this mirror",
	Run: run,
}

// mode selects how a method pair is compared.
type mode int

const (
	// modeMirror compares guarded effect sequences and merged return maps.
	modeMirror mode = iota
	// modeRoles compares returned roles under exact guard stacks, payloads
	// stripped (for role ladders factored into a lane-side method).
	modeRoles
	// modeOrient checks keep-min/keep-max compare orientation on both sides
	// instead of structural equality.
	modeOrient
)

// methodPair names one single-lane method and its lane counterpart.
type methodPair struct {
	single, lane string
	mode         mode
}

// pairSpec registers one kernel sibling pair within one package.
type pairSpec struct {
	// pkgSuffix gates the pair to packages whose import path ends with it.
	pkgSuffix string
	// single and lane are the two kernel type names.
	single, lane string
	// fieldMap renames lane-side receiver fields to their single-lane
	// equivalents before comparison (laneAllReduceKernel delivers into res
	// what allReduceKernel keeps in out).
	fieldMap map[string]string
	methods  []methodPair
}

// pairs is the registry. The lanefix entries bind the analyzer's own golden
// fixtures (testdata/src/lanefix); they match no real package.
var pairs = []pairSpec{
	{
		pkgSuffix: "internal/prefix",
		single:    "prefixKernel", lane: "lanePrefixKernel",
		// The lane kernel keeps the running prefix in the flat node-major s
		// (scattered to out in Local, where the self-assignment erases);
		// the single-lane kernel's prefix variable lives directly in out.
		fieldMap: map[string]string{"s": "out"},
		methods: []methodPair{
			{"Produce", "Produce", modeMirror},
			{"Absorb", "Absorb", modeMirror},
			{"Local", "Local", modeMirror},
		},
	},
	{
		pkgSuffix: "internal/collective",
		single:    "allReduceKernel", lane: "laneAllReduceKernel",
		fieldMap: map[string]string{"res": "out"},
		methods: []methodPair{
			{"Produce", "Produce", modeMirror},
			{"Absorb", "Absorb", modeMirror},
			{"Local", "Local", modeMirror},
		},
	},
	{
		pkgSuffix: "internal/collective",
		single:    "broadcastKernel", lane: "LaneBroadcastKernel",
		fieldMap: map[string]string{"val": "out"},
		methods: []methodPair{
			{"Produce", "role", modeRoles},
			{"Absorb", "Absorb", modeMirror},
		},
	},
	{
		pkgSuffix: "internal/sortnet",
		single:    "exchKernel", lane: "LaneSortKernel",
		methods: []methodPair{
			{"Produce", "Produce", modeMirror},
			{"Absorb", "Absorb", modeOrient},
		},
	},
	// Fixture pairs (testdata/src/lanefix): a clean mirror, a drifted lane
	// kernel the analyzer must flag, and a suppressed divergence.
	{
		pkgSuffix: "/lanefix",
		single:    "miniKernel", lane: "laneMiniKernel",
		fieldMap: map[string]string{"res": "out"},
		methods: []methodPair{
			{"Produce", "Produce", modeMirror},
			{"Absorb", "Absorb", modeMirror},
			{"Local", "Local", modeMirror},
		},
	},
	{
		pkgSuffix: "/lanefix",
		single:    "driftKernel", lane: "laneDriftKernel",
		fieldMap: map[string]string{"res": "out"},
		methods: []methodPair{
			{"Produce", "Produce", modeMirror},
			{"Absorb", "Absorb", modeMirror},
			{"Local", "Local", modeMirror},
		},
	},
	{
		pkgSuffix: "/lanefix",
		single:    "okKernel", lane: "laneOkKernel",
		fieldMap: map[string]string{"res": "out"},
		methods: []methodPair{
			{"Absorb", "Absorb", modeMirror},
		},
	},
	{
		pkgSuffix: "/lanefix",
		single:    "cmpKernel", lane: "laneCmpKernel",
		methods: []methodPair{
			{"Absorb", "Absorb", modeOrient},
		},
	},
}

func run(pass *driver.Pass) (any, error) {
	for _, spec := range pairs {
		if !strings.HasSuffix(pass.Pkg.Path(), spec.pkgSuffix) {
			continue
		}
		checkPair(pass, spec)
	}
	return nil, nil
}

// methodsOf collects the FuncDecls whose receiver base type is named typ.
func methodsOf(pass *driver.Pass, typ string) map[string]*ast.FuncDecl {
	out := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if recvTypeName(fd.Recv.List[0].Type) == typ {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

// recvTypeName unwraps *T, T[E] and T[E1, E2] receiver types to T's name.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

func checkPair(pass *driver.Pass, spec pairSpec) {
	singles := methodsOf(pass, spec.single)
	lanes := methodsOf(pass, spec.lane)
	if len(singles) == 0 || len(lanes) == 0 {
		// The registered pair has rotted away (renamed or deleted): say so
		// rather than silently ceasing to check the invariant.
		pass.Reportf(pass.Files[0].Pos(),
			"registered kernel pair %s/%s not found in %s; update the laneparity registry so the lane mirror stays machine-checked",
			spec.single, spec.lane, pass.Pkg.Path())
		return
	}
	for _, mp := range spec.methods {
		sm, lm := singles[mp.single], lanes[mp.lane]
		if sm == nil || lm == nil {
			pos := pass.Files[0].Pos()
			if lm != nil {
				pos = lm.Pos()
			} else if sm != nil {
				pos = sm.Pos()
			}
			pass.Reportf(pos, "kernel pair %s/%s: method %s/%s missing; update the laneparity registry",
				spec.single, spec.lane, mp.single, mp.lane)
			continue
		}
		sn := normalize(pass, sm, nil)
		ln := normalize(pass, lm, spec.fieldMap)
		label := fmt.Sprintf("lane kernel %s.%s drifts from %s.%s", spec.lane, mp.lane, spec.single, mp.single)
		switch mp.mode {
		case modeMirror:
			compareEffects(pass, label, lm.Pos(), sn, ln)
			compareReturns(pass, label, lm.Pos(), sn, ln, false)
		case modeRoles:
			compareEffects(pass, label, lm.Pos(), sn, ln)
			compareReturns(pass, label, lm.Pos(), sn, ln, true)
		case modeOrient:
			checkOrientation(pass, spec.single+"."+mp.single, sm.Pos(), sn)
			checkOrientation(pass, spec.lane+"."+mp.lane, lm.Pos(), ln)
		}
	}
}

// ---------------------------------------------------------------------------
// Comparison

// compareEffects diffs the guarded effect sequences.
func compareEffects(pass *driver.Pass, label string, lanePos token.Pos, sn, ln *normBody) {
	for i := 0; i < len(sn.effects) && i < len(ln.effects); i++ {
		se, le := sn.effects[i], ln.effects[i]
		if se.text != le.text {
			pass.Reportf(le.pos, "%s: lane mirrors %q where the single-lane kernel has %q", label, le.text, se.text)
			return
		}
		if guardKey(se.guards) != guardKey(le.guards) {
			pass.Reportf(le.pos, "%s: %q runs under guards [%s] in the lane kernel but [%s] in the single-lane kernel",
				label, le.text, guardKey(le.guards), guardKey(se.guards))
			return
		}
	}
	if len(sn.effects) != len(ln.effects) {
		pass.Reportf(lanePos, "%s: %d mirrored statements in the lane kernel, %d in the single-lane kernel",
			label, len(ln.effects), len(sn.effects))
	}
}

// compareReturns checks the guard → (role, payload) maps. Arms present on one
// side only must agree with the other side's default arm (the lane kernel may
// merge single-lane arms whose payloads coincide). With rolesOnly, payloads
// are ignored and guard stacks must match exactly, in sequence.
func compareReturns(pass *driver.Pass, label string, lanePos token.Pos, sn, ln *normBody, rolesOnly bool) {
	if rolesOnly {
		n := len(sn.rets)
		if len(ln.rets) < n {
			n = len(ln.rets)
		}
		for i := 0; i < n; i++ {
			sr, lr := sn.rets[i], ln.rets[i]
			if sr.role != lr.role || guardKey(sr.guards) != guardKey(lr.guards) {
				pass.Reportf(lr.pos, "%s: role %s under guards [%s] in the lane kernel, %s under [%s] in the single-lane kernel",
					label, lr.role, guardKey(lr.guards), sr.role, guardKey(sr.guards))
				return
			}
		}
		if len(sn.rets) != len(ln.rets) {
			pass.Reportf(lanePos, "%s: %d role returns in the lane kernel, %d in the single-lane kernel",
				label, len(ln.rets), len(sn.rets))
		}
		return
	}
	if len(sn.rets) == 0 && len(ln.rets) == 0 {
		return
	}
	sd, ld := defaultRet(sn.rets), defaultRet(ln.rets)
	if (sd == nil) != (ld == nil) {
		pass.Reportf(lanePos, "%s: one side has a default payload arm and the other does not", label)
		return
	}
	if sd != nil && ld != nil && (sd.role != ld.role || sd.val != ld.val) {
		pass.Reportf(ld.pos, "%s: default payload is (%s, %s) in the lane kernel, (%s, %s) in the single-lane kernel",
			label, ld.role, ld.val, sd.role, sd.val)
		return
	}
	check := func(a, b []retInfo, bDefault *retInfo, aSide string) bool {
		for i := range a {
			r := &a[i]
			if r.guard == "ELSE" {
				continue
			}
			if o := findRet(b, r.guard); o != nil {
				if o.role != r.role || o.val != r.val {
					pass.Reportf(r.pos, "%s: payload under %s is (%s, %s) in the %s kernel but (%s, %s) on the other side",
						label, r.guard, r.role, r.val, aSide, o.role, o.val)
					return false
				}
			} else if bDefault == nil || r.role != bDefault.role || r.val != bDefault.val {
				pass.Reportf(r.pos, "%s: payload arm %s -> (%s, %s) in the %s kernel has no counterpart and differs from the other side's default",
					label, r.guard, r.role, r.val, aSide)
				return false
			}
		}
		return true
	}
	if !check(ln.rets, sn.rets, sd, "lane") {
		return
	}
	check(sn.rets, ln.rets, ld, "single-lane")
}

func defaultRet(rets []retInfo) *retInfo {
	for i := range rets {
		if rets[i].guard == "ELSE" {
			return &rets[i]
		}
	}
	return nil
}

func findRet(rets []retInfo, guard string) *retInfo {
	for i := range rets {
		if rets[i].guard == guard {
			return &rets[i]
		}
	}
	return nil
}

// checkOrientation verifies every keepMinAt-guarded compare keeps the
// minimum on the keep-min branch and the maximum on the keep-max branch.
func checkOrientation(pass *driver.Pass, name string, pos token.Pos, nb *normBody) {
	sites := 0
	for _, e := range nb.effects {
		if e.text != "R.key = V" {
			continue
		}
		var km, cmp *guardInfo
		for i := range e.guards {
			g := &e.guards[i]
			if strings.Contains(g.text, "keepMinAt(") {
				km = g
			} else if strings.HasPrefix(g.text, "R.less(") {
				cmp = g
			}
		}
		if km == nil || cmp == nil || !cmp.positive {
			continue
		}
		sites++
		want := "R.less(V, R.key)" // keep-min branch: replace when the partner's key is smaller
		if !km.positive {
			want = "R.less(R.key, V)" // keep-max branch: replace when the local key is smaller
		}
		if cmp.text != want {
			branch := "keep-min"
			if !km.positive {
				branch = "keep-max"
			}
			pass.Reportf(e.pos, "%s: compare-exchange orientation drift: the %s branch replaces the key under %s, want %s",
				name, branch, cmp.text, want)
		}
	}
	if sites == 0 {
		pass.Reportf(pos, "%s: no keepMinAt-guarded compare-exchange found; the sort kernel shape changed — update the laneparity registry", name)
	}
}

// guardKey joins a guard stack into its comparison key. Negation is already
// folded into each guard's text by condGuards (flipped comparison operator,
// or a !(...) wrapper), so the texts alone identify the branch.
func guardKey(gs []guardInfo) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = g.text
	}
	return strings.Join(parts, " && ")
}
