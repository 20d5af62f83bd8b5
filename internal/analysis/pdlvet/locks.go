// Package pdlvet is the repository's invariant suite: static analyzers
// that machine-check the concurrency discipline PDL's correctness
// argument rests on — the documented lock hierarchy, the device-call
// discipline of the lock-free read path, the atomic-counter rules, and
// the decoded-differential cache's coherence protocol. The analyzers
// are built on internal/analysis/vetkit and run standalone via
// cmd/pdlvet or under `go vet -vettool`.
package pdlvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"pdl/internal/analysis/vetkit"
)

// lockClass identifies one lock of the documented hierarchy
// (README "Architecture", core package comment):
//
//	kv bucket lock > shard lock > channel lock > device bus lock > mapTable lock > diff-cache lock, base-image lock
//
// The kv bucket locks are the serving layer's outermost tier: a bucket
// operation faults pages through its pool, which re-enters the engine
// and takes shard locks below. The channel locks (core.storeChan.mu,
// one per flash channel) serialize each channel's allocation and
// program stream; like the shard and bucket locks they are a family,
// taken in ascending channel-index order when a batch spans channels.
// The device bus locks (flash.Chip.mu, filedev.Device.mu) sit between
// the channel lock and the mapTable lock: programs run under the channel
// lock and every mapping commit happens after the device call returns,
// never inside it. The innermost class has two members, the differential cache's
// mutex and the retained base images' (core.diffCache.mu,
// core.baseImages.mu): both are leaves, and being one class they are
// never held together.
type lockClass int

const (
	classNone lockClass = iota
	classKV
	classShard
	classChannel
	classBus
	classMapTable
	classDCache
)

// rank orders the classes outermost (smallest) to innermost.
func (c lockClass) rank() int { return int(c) }

// multiInstance reports whether the class names a family of locks —
// one per shard, per kv bucket, or per flash channel — where holding
// two members at once is legal if (and only if) they are taken in
// ascending index order.
func (c lockClass) multiInstance() bool {
	return c == classShard || c == classKV || c == classChannel
}

func (c lockClass) String() string {
	switch c {
	case classKV:
		return "kv"
	case classShard:
		return "shard"
	case classChannel:
		return "channel"
	case classBus:
		return "bus"
	case classMapTable:
		return "maptable"
	case classDCache:
		return "dcache"
	}
	return "none"
}

// classByName resolves a //pdlvet:holds name.
func classByName(name string) lockClass {
	for _, c := range []lockClass{classKV, classShard, classChannel, classBus, classMapTable, classDCache} {
		if c.String() == name {
			return c
		}
	}
	return classNone
}

// lockModel maps (owning struct type name, mutex field name) to a lock
// class. Matching is by type and field name, not package path, so the
// analyzers work identically on the real tree and on testdata corpora
// that mirror its shapes.
var lockModel = map[[2]string]lockClass{
	{"bucket", "mu"}:     classKV,
	{"shard", "mu"}:      classShard,
	{"storeChan", "mu"}:  classChannel,
	{"Chip", "mu"}:       classBus,
	{"Device", "mu"}:     classBus,
	{"mapTable", "mu"}:   classMapTable,
	{"diffCache", "mu"}:  classDCache,
	{"baseImages", "mu"}: classDCache,
}

// lockOp describes one Lock/Unlock-family call on a modeled lock.
type lockOp struct {
	class     lockClass
	acquire   bool
	exclusive bool
	// recv is the expression owning the mutex field (e.g. `sh` in
	// sh.mu.Lock()); index is the shard index expression when recv is an
	// index into a shard slice (e.g. `i` in s.shards[i].mu.Lock()).
	recv  ast.Expr
	index ast.Expr
}

// classifyLockCall reports whether call is a (R)Lock/(R)Unlock on one of
// the modeled mutexes.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op.acquire, op.exclusive = true, true
	case "RLock":
		op.acquire, op.exclusive = true, false
	case "Unlock":
		op.acquire, op.exclusive = false, true
	case "RUnlock":
		op.acquire, op.exclusive = false, false
	default:
		return lockOp{}, false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	recv := field.X
	tname := namedTypeName(info.Types[recv].Type)
	class, ok := lockModel[[2]string{tname, field.Sel.Name}]
	if !ok {
		return lockOp{}, false
	}
	op.class = class
	op.recv = recv
	if idx, ok := recv.(*ast.IndexExpr); ok {
		op.index = idx.Index
	}
	return op, true
}

// namedTypeName returns the bare name of t's named type, dereferencing
// one pointer, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	} else if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// heldLock is one acquired lock class in the abstract state.
type heldLock struct {
	class     lockClass
	exclusive bool
	// deferRelease is set when a defer guarantees the release on every
	// return path.
	deferRelease bool
	// entry marks locks seeded from a //pdlvet:holds declaration rather
	// than acquired in the function body.
	entry bool
	// pos is the acquisition site (for diagnostics and for recognizing
	// the same site re-executed by a loop).
	pos token.Pos
	// shardIdx is the constant shard index if known, else -1.
	shardIdx int64
	// shardIdxKnown reports whether shardIdx is meaningful.
	shardIdxKnown bool
}

// lockSet is the abstract "locks held here" state, tracked per class.
type lockSet map[lockClass]*heldLock

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		lv := *v
		out[k] = &lv
	}
	return out
}

// maxRank returns the innermost rank currently held and its class.
func (s lockSet) maxRank() (int, lockClass) {
	best, bc := 0, classNone
	for c := range s {
		if c.rank() > best {
			best, bc = c.rank(), c
		}
	}
	return best, bc
}

// intersect merges branch exits: a lock is held after the branch point
// only if every falling-through branch holds it.
func intersect(sets []lockSet) lockSet {
	if len(sets) == 0 {
		return lockSet{}
	}
	out := sets[0].clone()
	for _, s := range sets[1:] {
		for c, h := range out {
			o, ok := s[c]
			if !ok {
				delete(out, c)
				continue
			}
			h.deferRelease = h.deferRelease || o.deferRelease
		}
	}
	return out
}

// union merges a loop body's exit with the pre-loop state: a lock is
// held if either holds it (the body may have executed and accumulated).
func union(a, b lockSet) lockSet {
	out := a.clone()
	for c, h := range b {
		if have, ok := out[c]; ok {
			have.deferRelease = have.deferRelease || h.deferRelease
			continue
		}
		lv := *h
		out[c] = &lv
	}
	return out
}

// constIndex evaluates e as a constant int, if it is one.
func constIndex(info *types.Info, e ast.Expr) (int64, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

// funcSummary is the per-function result of the first pass: which lock
// classes the function may acquire (directly or through same-package
// callees) and which it declares its caller must hold.
type funcSummary struct {
	obj      types.Object
	decl     *ast.FuncDecl
	acquires map[lockClass]bool
	requires []lockClass
	callees  map[types.Object]bool
}

// summarize builds funcSummaries for every function declaration of the
// package and closes the acquires sets over same-package calls.
func summarize(pass *vetkit.Pass) map[types.Object]*funcSummary {
	sums := make(map[types.Object]*funcSummary)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			sum := &funcSummary{
				obj:      obj,
				decl:     fd,
				acquires: make(map[lockClass]bool),
				callees:  make(map[types.Object]bool),
			}
			for _, name := range vetkit.HoldsOf(fd) {
				if c := classByName(name); c != classNone {
					sum.requires = append(sum.requires, c)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					return false // runs on another stack
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op, ok := classifyLockCall(pass.TypesInfo, call); ok {
					if op.acquire {
						sum.acquires[op.class] = true
					}
					return true
				}
				if callee := calleeOf(pass.TypesInfo, call); callee != nil {
					sum.callees[callee] = true
				}
				return true
			})
			sums[obj] = sum
		}
	}
	// Transitive closure of acquires over same-package static calls.
	for changed := true; changed; {
		changed = false
		for _, sum := range sums {
			for callee := range sum.callees {
				csum, ok := sums[callee]
				if !ok {
					continue
				}
				for c := range csum.acquires {
					if !sum.acquires[c] {
						sum.acquires[c] = true
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// calleeOf resolves the static callee object of a call, or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if o := info.Uses[fun]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if o := info.Uses[fun.Sel]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	}
	return nil
}
