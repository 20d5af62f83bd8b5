package pdlvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"pdl/internal/analysis/vetkit"
)

// AtomicCounter enforces the telemetry-counter discipline that PR 2
// fixed by hand in Chip.Stats:
//
//   - fields of the dedicated atomic counter structs (flash.Counters and
//     core's three counter blocks, readTelemetry, writeTelemetry and
//     integrityTelemetry) may only be touched through their sync/atomic
//     API — a plain read, write, or copy of such a field is a data race
//     with any concurrent monitor;
//   - a counter field must not mix sync/atomic access at one site with
//     plain access at another (mixed access voids every guarantee the
//     atomic sites paid for);
//   - for plain counter containers (flash.Stats, core.Telemetry) held
//     in shared structs, every write site's lock context is
//     intersected to infer the guarding lock; an access that holds no
//     guarding lock while guarded writes exist elsewhere is the
//     pre-PR-2 torn-snapshot bug and is reported.
var AtomicCounter = &vetkit.Analyzer{
	Name: "atomiccounter",
	Doc: "check that telemetry counters are accessed through sync/atomic (or consistently\n" +
		"under the lock that guards their writes), never with mixed or unguarded access",
	Run: runAtomicCounter,
}

// atomicStructNames are the structs whose fields carry sync/atomic
// types and must only be used through that API.
var atomicStructNames = map[string]bool{
	"Counters":           true,
	"readTelemetry":      true,
	"writeTelemetry":     true,
	"integrityTelemetry": true,
}

// containerNames are the plain counter snapshot structs; when one is a
// field of a shared struct, its access discipline is inferred.
var containerNames = map[string]bool{"Stats": true, "Telemetry": true}

// counterAccess is one read or write of a counter container field.
type counterAccess struct {
	pos    token.Pos
	write  bool
	atomic bool
	held   map[lockClass]bool
}

func runAtomicCounter(pass *vetkit.Pass) error {
	accesses := make(map[[2]string][]*counterAccess) // (owner type, field) -> accesses
	for _, f := range pass.Files {
		parents := parentMap(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			heldAt := stmtLockContexts(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				checkAtomicStructField(pass, sel, parents)
				if acc, key, ok := containerFieldAccess(pass, sel, parents); ok {
					acc.held = heldAt.at(sel.Pos())
					accesses[key] = append(accesses[key], acc)
				}
				return true
			})
		}
	}

	keys := make([][2]string, 0, len(accesses))
	for k := range accesses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, key := range keys {
		accs := accesses[key]
		reportMixed(pass, key, accs)
		reportUnguarded(pass, key, accs)
	}
	return nil
}

// checkAtomicStructField reports sel if it accesses a field of one of
// the atomic counter structs outside the sync/atomic API.
func checkAtomicStructField(pass *vetkit.Pass, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node) {
	if !atomicStructNames[namedTypeName(pass.TypesInfo.Types[sel.X].Type)] {
		return
	}
	// Legal form 1: a method call on a sync/atomic-typed field, i.e.
	// sel is the X of a selector that is being called (x.f.Load()).
	if p, ok := parents[sel].(*ast.SelectorExpr); ok && p.X == sel {
		if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
			if fieldTypeIsAtomic(pass.TypesInfo.Types[sel].Type) {
				return
			}
		}
	}
	// Legal form 2: &x.f passed to a sync/atomic function.
	if u, ok := parents[sel].(*ast.UnaryExpr); ok && u.Op == token.AND {
		if call, ok := parents[u].(*ast.CallExpr); ok && isAtomicPkgCall(pass.TypesInfo, call) {
			return
		}
	}
	pass.Reportf(sel.Pos(),
		"field %s of atomic counter struct %s accessed outside the sync/atomic API",
		sel.Sel.Name, namedTypeName(pass.TypesInfo.Types[sel.X].Type))
}

// fieldTypeIsAtomic reports whether t is one of sync/atomic's types.
func fieldTypeIsAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// isAtomicPkgCall reports whether call invokes a sync/atomic function.
func isAtomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeOf(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "sync/atomic"
}

// containerFieldAccess classifies sel as an access to a counter
// container field of a shared (pointer-addressed) struct: either the
// container itself (base.tel, a whole-struct read or write) or one of
// its fields (base.tel.Reads). Returns the access and its (owner type,
// field name) key.
func containerFieldAccess(pass *vetkit.Pass, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node) (*counterAccess, [2]string, bool) {
	if !containerNames[namedTypeName(pass.TypesInfo.Types[sel].Type)] {
		return nil, [2]string{}, false
	}
	baseType := pass.TypesInfo.Types[sel.X].Type
	if baseType == nil {
		return nil, [2]string{}, false
	}
	if _, ok := baseType.Underlying().(*types.Pointer); !ok {
		if _, ok := baseType.(*types.Pointer); !ok {
			return nil, [2]string{}, false // value base: a local snapshot, not shared state
		}
	}
	owner := namedTypeName(baseType)
	if owner == "" {
		return nil, [2]string{}, false
	}
	key := [2]string{owner, sel.Sel.Name}
	acc := &counterAccess{pos: sel.Pos()}

	// The effective access site: the container itself, or the subfield
	// selector directly on it.
	site := ast.Node(sel)
	if p, ok := parents[sel].(*ast.SelectorExpr); ok && p.X == ast.Node(sel) {
		if s, ok := pass.TypesInfo.Selections[p]; ok && s.Kind() == types.FieldVal {
			site = p
		}
	}
	switch p := parents[site].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == site {
				acc.write = true
			}
		}
	case *ast.IncDecStmt:
		acc.write = true
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			if call, ok := parents[p].(*ast.CallExpr); ok && isAtomicPkgCall(pass.TypesInfo, call) {
				acc.atomic = true
				acc.write = true // Add/Store/Swap; Load via pointer is rare and counts the same
			} else {
				acc.write = true // address escapes: assume the worst
			}
		}
	}
	return acc, key, true
}

// reportMixed reports plain accesses of a field that other sites access
// through sync/atomic.
func reportMixed(pass *vetkit.Pass, key [2]string, accs []*counterAccess) {
	anyAtomic := false
	for _, a := range accs {
		if a.atomic {
			anyAtomic = true
		}
	}
	if !anyAtomic {
		return
	}
	for _, a := range accs {
		if !a.atomic {
			pass.Reportf(a.pos,
				"plain access of counter %s.%s, which is accessed with sync/atomic elsewhere (mixed access)",
				key[0], key[1])
		}
	}
}

// reportUnguarded infers the lock guarding a counter container from the
// intersection of its plain write sites' lock contexts and reports any
// access holding none of the guards — the pre-PR-2 Chip.Stats bug.
func reportUnguarded(pass *vetkit.Pass, key [2]string, accs []*counterAccess) {
	var guards map[lockClass]bool
	for _, a := range accs {
		if !a.write || a.atomic {
			continue
		}
		if guards == nil {
			guards = make(map[lockClass]bool, len(a.held))
			for c := range a.held {
				guards[c] = true
			}
			continue
		}
		for c := range guards {
			if !a.held[c] {
				delete(guards, c)
			}
		}
	}
	if len(guards) == 0 {
		return // no writes, or writes follow a caller-holds convention we cannot see
	}
	guardNames := make([]string, 0, len(guards))
	for c := range guards {
		guardNames = append(guardNames, c.String())
	}
	sort.Strings(guardNames)
	for _, a := range accs {
		if a.atomic {
			continue
		}
		ok := false
		for c := range guards {
			if a.held[c] {
				ok = true
			}
		}
		if !ok {
			pass.Reportf(a.pos,
				"access of counter %s.%s without the %s lock that guards its writes (torn-snapshot race)",
				key[0], key[1], guardNames[0])
		}
	}
}

// stmtLockContext records the lock classes held at each statement.
type stmtLockContext struct {
	stmts []ast.Stmt
	held  map[ast.Stmt]map[lockClass]bool
}

// stmtLockContexts runs the lock tracker over fn, recording the classes
// held at every statement.
func stmtLockContexts(pass *vetkit.Pass, fn *ast.FuncDecl) *stmtLockContext {
	ctx := &stmtLockContext{held: make(map[ast.Stmt]map[lockClass]bool)}
	walkFunc(pass, fn, hooks{
		onStmt: func(stmt ast.Stmt, held lockSet) {
			classes := make(map[lockClass]bool, len(held))
			for c := range held {
				classes[c] = true
			}
			ctx.stmts = append(ctx.stmts, stmt)
			ctx.held[stmt] = classes
		},
	})
	return ctx
}

// at returns the lock classes held at the innermost statement enclosing
// pos.
func (c *stmtLockContext) at(pos token.Pos) map[lockClass]bool {
	var best ast.Stmt
	for _, s := range c.stmts {
		if s.Pos() <= pos && pos <= s.End() {
			if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
				best = s
			}
		}
	}
	if best == nil {
		return map[lockClass]bool{}
	}
	return c.held[best]
}

// parentMap builds a child-to-parent relation for a file.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
