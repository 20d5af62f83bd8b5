package pdlvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"pdl/internal/analysis/vetkit"
)

// LockOrder reports violations of the documented lock hierarchy
//
//	kv > shard > channel > bus > maptable > dcache
//
// (README "Architecture"; dcache is the leaf class, the differential
// cache's mutex and the retained base images'): acquiring an outer lock
// while an inner one is held — directly or by calling a same-package
// function that may acquire one — re-acquiring a class already held, multi-instance
// (kv bucket, shard, flash channel) acquisitions whose index order
// cannot be proven ascending, locks still held at a return without a
// deferred or explicit unlock, and calls into functions that declare
// `//pdlvet:holds <lock>` from contexts that do not hold it. The holds
// directive also attaches to function literals (a comment on the line
// above the `func` keyword): channel-agnostic program callbacks run
// under the channel lock their runner acquires, which the literal's
// definition site cannot see.
var LockOrder = &vetkit.Analyzer{
	Name: "lockorder",
	Doc: "check lock acquisitions against the " + lockHierarchy + " hierarchy,\n" +
		"ascending bucket/shard/channel-lock order, unlock-on-return discipline, and //pdlvet:holds declarations",
	Run: runLockOrder,
}

// lockHierarchy spells the hierarchy in diagnostics, outermost first. The
// leaf class is written with both its members.
const lockHierarchy = "kv > shard > channel > bus > maptable > dcache (diff cache, base images)"

func runLockOrder(pass *vetkit.Pass) error {
	sums := summarize(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkLockOrder(pass, fd, sums)
		}
	}
	return nil
}

func checkLockOrder(pass *vetkit.Pass, decl *ast.FuncDecl, sums map[types.Object]*funcSummary) {
	walkFunc(pass, decl, hooks{
		onAcquire: func(t *tracker, call *ast.CallExpr, op lockOp, before lockSet) {
			if r, c := before.maxRank(); r > op.class.rank() {
				pass.Reportf(call.Pos(),
					"acquiring the %s lock while holding the %s lock inverts the lock hierarchy (%s)",
					op.class, c, lockHierarchy)
				return
			}
			held, already := before[op.class]
			if !already {
				return
			}
			if !op.class.multiInstance() {
				pass.Reportf(call.Pos(), "re-acquiring the %s lock already held (self-deadlock)", op.class)
				return
			}
			// Multi-instance acquisition (shard, kv bucket): must be
			// provably ascending.
			if held.pos == call.Pos() {
				// The same acquisition site re-executed by a loop.
				if !t.loopAscending(op) {
					pass.Reportf(call.Pos(),
						"%s locks acquired in a loop whose index order cannot be proven ascending (sort the index slice first)",
						op.class)
				}
				return
			}
			if v, ok := constIndex(pass.TypesInfo, op.index); ok && held.shardIdxKnown {
				if v <= held.shardIdx {
					pass.Reportf(call.Pos(),
						"%s lock %d acquired while %s lock %d is held; %s locks must be taken in ascending index order",
						op.class, v, op.class, held.shardIdx, op.class)
				}
				return
			}
			pass.Reportf(call.Pos(),
				"second %s lock acquired while one is held, in an order that cannot be proven ascending",
				op.class)
		},
		onCall: func(call *ast.CallExpr, callee types.Object, held lockSet) {
			if callee == nil {
				return
			}
			sum, ok := sums[callee]
			if !ok {
				return
			}
			for _, req := range sum.requires {
				if _, ok := held[req]; !ok {
					pass.Reportf(call.Pos(),
						"call to %s requires holding the %s lock (declared //pdlvet:holds %s)",
						callee.Name(), req, req)
				}
			}
			if len(held) == 0 {
				return
			}
			maxRank, maxClass := held.maxRank()
			for c := range sum.acquires {
				if c.rank() < maxRank {
					pass.Reportf(call.Pos(),
						"call to %s may acquire the %s lock while the %s lock is held, inverting the lock hierarchy",
						callee.Name(), c, maxClass)
				} else if _, ok := held[c]; ok && !c.multiInstance() {
					pass.Reportf(call.Pos(),
						"call to %s may re-acquire the %s lock already held (self-deadlock)",
						callee.Name(), c)
				}
			}
		},
		onExit: func(pos token.Pos, held lockSet) {
			for _, h := range held {
				if h.entry || h.deferRelease {
					continue
				}
				pass.Reportf(h.pos,
					"%s lock acquired here is still held at the return on line %d without a deferred unlock",
					h.class, pass.Fset.Position(pos).Line)
			}
		},
	})
}

// loopAscending reports whether the innermost enclosing loop provably
// yields ascending shard indices for op's index expression: an
// index-variable range over a slice, a classic `i++` counting loop, or
// a value range over a slice the function sorted.
func (t *tracker) loopAscending(op lockOp) bool {
	if len(t.loops) == 0 {
		return false
	}
	idxIdent, _ := op.index.(*ast.Ident)
	if idxIdent == nil {
		return false
	}
	idxObj := t.pass.TypesInfo.Uses[idxIdent]
	if idxObj == nil {
		return false
	}
	switch loop := t.loops[len(t.loops)-1].(type) {
	case *ast.RangeStmt:
		if key, ok := loop.Key.(*ast.Ident); ok && t.pass.TypesInfo.Defs[key] == idxObj {
			return true // `for i := range xs { shards[i]... }`: i ascends
		}
		if val, ok := loop.Value.(*ast.Ident); ok && t.pass.TypesInfo.Defs[val] == idxObj {
			if x, ok := loop.X.(*ast.Ident); ok {
				if obj := t.pass.TypesInfo.Uses[x]; obj != nil && t.sorted[obj] {
					return true // `sort.Ints(xs); for _, i := range xs { ... }`
				}
			}
		}
		return false
	case *ast.ForStmt:
		post, ok := loop.Post.(*ast.IncDecStmt)
		if !ok || post.Tok != token.INC {
			return false
		}
		pv, ok := post.X.(*ast.Ident)
		return ok && t.pass.TypesInfo.Uses[pv] == idxObj
	}
	return false
}
