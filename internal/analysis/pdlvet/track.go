package pdlvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"pdl/internal/analysis/vetkit"
)

// hooks are the analyzer-specific callbacks the tracker fires while
// abstractly interpreting a function body. The lockSet arguments are
// live state: hooks must not mutate them.
type hooks struct {
	// onAcquire fires before an acquisition is applied to the state.
	onAcquire func(t *tracker, call *ast.CallExpr, op lockOp, before lockSet)
	// onCall fires at every non-lock call site; callee may be nil when
	// the target is dynamic (interface method values, func values).
	onCall func(call *ast.CallExpr, callee types.Object, held lockSet)
	// onStmt fires at every statement before it executes.
	onStmt func(stmt ast.Stmt, held lockSet)
	// onExit fires at every return (and at the closing brace of a body
	// that falls off the end).
	onExit func(pos token.Pos, held lockSet)
}

// tracker walks one function, maintaining the lock-held abstraction:
// straight-line Lock/Unlock effects, defer-registered releases
// (including releases inside deferred function literals), branch merges
// by intersection, and loop merges by union. Goroutine bodies launched
// with `go` are walked with an empty lock set — they run on their own
// stack.
type tracker struct {
	pass  *vetkit.Pass
	hooks hooks
	// sorted holds the objects of slices the function passed to a
	// sorting call (sort.Ints, slices.Sort, sort.Slice, ...): ranging
	// over one of these yields ascending values.
	sorted map[types.Object]bool
	// loops is the stack of enclosing for/range statements.
	loops []ast.Stmt
}

// walkFunc interprets one function declaration, seeding the entry state
// from its //pdlvet:holds declaration.
func walkFunc(pass *vetkit.Pass, decl *ast.FuncDecl, h hooks) {
	if decl.Body == nil {
		return
	}
	t := &tracker{pass: pass, hooks: h, sorted: make(map[types.Object]bool)}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) > 0 {
			if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
				switch sel.Sel.Name {
				case "Ints", "Sort", "Slice", "SliceStable", "Float64s", "Strings":
					if arg, ok := call.Args[0].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[arg]; obj != nil {
							t.sorted[obj] = true
						}
					}
				}
			}
		}
		return true
	})

	entry := lockSet{}
	for _, name := range vetkit.HoldsOf(decl) {
		if c := classByName(name); c != classNone {
			entry[c] = &heldLock{class: c, exclusive: true, entry: true, pos: decl.Pos(), shardIdx: -1}
		}
	}
	exit, terminated := t.walkStmts(decl.Body.List, entry)
	if !terminated && t.hooks.onExit != nil {
		t.hooks.onExit(decl.Body.Rbrace, exit)
	}
}

// walkStmts interprets a statement list, returning the fall-through
// state and whether every path through the list terminates (returns).
func (t *tracker) walkStmts(stmts []ast.Stmt, state lockSet) (lockSet, bool) {
	for _, s := range stmts {
		var term bool
		state, term = t.walkStmt(s, state)
		if term {
			return state, true
		}
	}
	return state, false
}

func (t *tracker) walkStmt(stmt ast.Stmt, state lockSet) (lockSet, bool) {
	if t.hooks.onStmt != nil {
		t.hooks.onStmt(stmt, state)
	}
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, ok := classifyLockCall(t.pass.TypesInfo, call); ok {
				t.applyOp(call, op, state)
				return state, false
			}
		}
		t.visitExpr(s.X, state)
		return state, false

	case *ast.DeferStmt:
		t.applyDefer(s.Call, state)
		return state, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			t.visitExpr(r, state)
		}
		if t.hooks.onExit != nil {
			t.hooks.onExit(s.Pos(), state)
		}
		return state, true

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			t.visitExpr(e, state)
		}
		for _, e := range s.Lhs {
			t.visitExpr(e, state)
		}
		return state, false

	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		t.visitExpr(s, state)
		return state, false

	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			t.walkStmts(lit.Body.List, lockSet{})
		}
		for _, a := range s.Call.Args {
			t.visitExpr(a, state)
		}
		return state, false

	case *ast.BlockStmt:
		return t.walkStmts(s.List, state)

	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, state)

	case *ast.IfStmt:
		if s.Init != nil {
			state, _ = t.walkStmt(s.Init, state)
		}
		t.visitExpr(s.Cond, state)
		thenExit, thenTerm := t.walkStmts(s.Body.List, state.clone())
		elseExit, elseTerm := state, false
		if s.Else != nil {
			elseExit, elseTerm = t.walkStmt(s.Else, state.clone())
		}
		var falls []lockSet
		if !thenTerm {
			falls = append(falls, thenExit)
		}
		if !elseTerm {
			falls = append(falls, elseExit)
		}
		if len(falls) == 0 {
			return state, true
		}
		return intersect(falls), false

	case *ast.ForStmt:
		if s.Init != nil {
			state, _ = t.walkStmt(s.Init, state)
		}
		if s.Cond != nil {
			t.visitExpr(s.Cond, state)
		}
		t.loops = append(t.loops, s)
		bodyExit, bodyTerm := t.walkStmts(s.Body.List, state.clone())
		if !bodyTerm {
			// Second abstract iteration: locks the body accumulated
			// (shard locks taken in a loop) are now visible at their own
			// acquisition sites, which is what the ascending-order check
			// keys on. Identical re-fired diagnostics dedup downstream.
			bodyExit, _ = t.walkStmts(s.Body.List, union(state, bodyExit))
		}
		t.loops = t.loops[:len(t.loops)-1]
		if s.Cond == nil && bodyTerm {
			// `for { ... }` whose body always returns: nothing falls out.
			return state, true
		}
		if bodyTerm {
			return state, false
		}
		return union(state, bodyExit), false

	case *ast.RangeStmt:
		t.visitExpr(s.X, state)
		t.loops = append(t.loops, s)
		bodyExit, bodyTerm := t.walkStmts(s.Body.List, state.clone())
		if !bodyTerm {
			bodyExit, _ = t.walkStmts(s.Body.List, union(state, bodyExit))
		}
		t.loops = t.loops[:len(t.loops)-1]
		if bodyTerm {
			return state, false
		}
		return union(state, bodyExit), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			state, _ = t.walkStmt(s.Init, state)
		}
		if s.Tag != nil {
			t.visitExpr(s.Tag, state)
		}
		return t.walkCases(s.Body, state)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			state, _ = t.walkStmt(s.Init, state)
		}
		return t.walkCases(s.Body, state)

	case *ast.SelectStmt:
		return t.walkCases(s.Body, state)

	default:
		return state, false
	}
}

// walkCases merges the bodies of a switch/select: the fall-through state
// is the intersection of the falling-through cases (plus the pre-switch
// state when no default exists, since no case may match).
func (t *tracker) walkCases(body *ast.BlockStmt, state lockSet) (lockSet, bool) {
	var falls []lockSet
	hasDefault := false
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch cc := cs.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				t.visitExpr(e, state)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				t.walkStmt(cc.Comm, state.clone())
			}
			stmts = cc.Body
		}
		exit, term := t.walkStmts(stmts, state.clone())
		if !term {
			falls = append(falls, exit)
		}
	}
	if !hasDefault {
		falls = append(falls, state)
	}
	if len(falls) == 0 {
		return state, true
	}
	return intersect(falls), false
}

// applyOp applies one modeled Lock/Unlock to the state.
func (t *tracker) applyOp(call *ast.CallExpr, op lockOp, state lockSet) {
	if op.acquire {
		if t.hooks.onAcquire != nil {
			t.hooks.onAcquire(t, call, op, state)
		}
		if have, ok := state[op.class]; ok {
			// Multi-acquisition of the class (shard locks in a loop):
			// the set keeps one entry, now of unknown index.
			have.shardIdxKnown = false
			return
		}
		h := &heldLock{class: op.class, exclusive: op.exclusive, pos: call.Pos(), shardIdx: -1}
		if v, ok := constIndex(t.pass.TypesInfo, op.index); ok {
			h.shardIdx, h.shardIdxKnown = v, true
		}
		state[op.class] = h
		return
	}
	delete(state, op.class)
}

// applyDefer handles a defer statement: a direct deferred unlock, or a
// deferred function literal whose body releases locks on return.
func (t *tracker) applyDefer(call *ast.CallExpr, state lockSet) {
	if op, ok := classifyLockCall(t.pass.TypesInfo, call); ok && !op.acquire {
		if h, ok := state[op.class]; ok {
			h.deferRelease = true
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if op, ok := classifyLockCall(t.pass.TypesInfo, c); ok && !op.acquire {
					if h, ok := state[op.class]; ok {
						h.deferRelease = true
					}
				}
			}
			return true
		})
	}
	// Other deferred calls run at return time, under whatever locks are
	// held then; they are not analyzed as calls at this program point.
}

// visitExpr scans an expression for calls, firing onCall and applying
// any lock operations buried in expression position. Function literals
// are walked with a clone of the current state (they typically run
// inline, e.g. sort.Slice comparators); their effects do not escape.
func (t *tracker) visitExpr(n ast.Node, state lockSet) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			t.walkStmts(e.Body.List, state.clone())
			return false
		case *ast.CallExpr:
			if op, ok := classifyLockCall(t.pass.TypesInfo, e); ok {
				t.applyOp(e, op, state)
				return true
			}
			if t.hooks.onCall != nil {
				t.hooks.onCall(e, calleeOf(t.pass.TypesInfo, e), state)
			}
			return true
		}
		return true
	})
}
