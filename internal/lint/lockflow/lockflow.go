// Package lockflow is the held-mutex interpreter lockheld and lockorder
// share: a conservative, path-sensitive abstract interpretation of one
// function body that tracks which sync mutexes are held at each point.
// Lock/RLock raise a mutex expression's held depth, a plain Unlock lowers
// it, a deferred Unlock keeps it raised until return, and branches merge
// pessimistically — a lock counts as held after a branch only if every
// path that falls through holds it (a path that terminates — return,
// break, continue, panic — does not leak its state past the branch).
//
// The walker decides nothing itself. Analyzers observe it through two
// hooks: Acquire fires on every Lock/RLock with the state just before it,
// Call on every other call with the state at the call site. Function
// literals are walked as independent roots with an empty state: a literal
// is almost always a callback or spawned task body that runs later, under
// whatever locks its eventual caller holds — unknowable statically, so
// only the locks taken inside the literal count.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Held is one mutex expression's state: how many times it is locked on
// every path reaching this point, and the lock class the analyzer gave it.
type Held struct {
	Depth int
	Class string
}

// State maps a mutex expression (e.g. "c.mu") to its held state.
type State map[string]*Held

// Walker interprets function bodies. Info is required; the hooks are
// optional.
type Walker struct {
	Info *types.Info
	// ClassOf names the lock class of a mutex expression ("" when it has
	// none). Consulted once per expression, when it is first locked.
	ClassOf func(mutexExpr ast.Expr) string
	// Acquire observes a Lock/RLock of a mutex of the given class at pos.
	// st is the state before the acquisition; relock reports that the very
	// same expression is already held.
	Acquire func(st State, class string, pos token.Pos, relock bool)
	// Call observes every call that is not a mutex operation. spawned
	// marks the call of a go statement: its operands are evaluated here,
	// under st, but the callee runs outside this critical section.
	Call func(st State, call *ast.CallExpr, spawned bool)
}

// Func interprets one function or literal body from an empty state.
func (w *Walker) Func(body *ast.BlockStmt) { w.block(body, make(State)) }

// MutexOp decodes <expr>.Lock()/Unlock/RLock/RUnlock where <expr> is a
// sync.Mutex or sync.RWMutex, returning the mutex expression (nil if call
// is anything else) and the operation.
func MutexOp(info *types.Info, call *ast.CallExpr) (mutexExpr ast.Expr, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !IsSyncMutex(tv.Type) {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// IsSyncMutex reports whether t is sync.Mutex or sync.RWMutex, behind any
// number of pointers.
func IsSyncMutex(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func (w *Walker) apply(st State, mutexExpr ast.Expr, op string, pos token.Pos) {
	key := types.ExprString(mutexExpr)
	switch op {
	case "Lock", "RLock":
		e := st[key]
		if e == nil {
			e = &Held{}
			if w.ClassOf != nil {
				e.Class = w.ClassOf(mutexExpr)
			}
		}
		if w.Acquire != nil {
			w.Acquire(st, e.Class, pos, e.Depth > 0)
		}
		st[key] = e
		e.Depth++
	case "Unlock", "RUnlock":
		if e := st[key]; e != nil && e.Depth > 0 {
			e.Depth--
		}
	}
}

// block interprets a statement list, returning whether every path
// through it terminates (return/branch/panic) before falling off the end.
func (w *Walker) block(b *ast.BlockStmt, st State) (terminated bool) {
	return w.stmts(b.List, st)
}

func (w *Walker) stmts(list []ast.Stmt, st State) (terminated bool) {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt interprets one statement, mutating st in place; the return value
// reports that control cannot continue past it.
func (w *Walker) stmt(s ast.Stmt, st State) (terminated bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				w.exprs(st, call.Args...)
				return true
			}
		}
		w.exprs(st, s.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the body;
		// any other deferred call is checked against the current state (an
		// approximation — it actually runs at return).
		if mutexExpr, op := MutexOp(w.Info, s.Call); mutexExpr != nil {
			if op == "Lock" || op == "RLock" {
				w.apply(st, mutexExpr, op, s.Call.Pos())
			}
			return false
		}
		w.exprs(st, s.Call)
	case *ast.GoStmt:
		w.exprs(st, s.Call.Args...)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.Func(lit.Body)
		} else {
			w.exprs(st, s.Call.Fun)
		}
		if w.Call != nil {
			w.Call(st, s.Call, true)
		}
	case *ast.AssignStmt:
		w.exprs(st, s.Rhs...)
		w.exprs(st, s.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(st, vs.Values...)
				}
			}
		}
	case *ast.ReturnStmt:
		w.exprs(st, s.Results...)
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprs(st, s.Cond)
		thenSt := clone(st)
		thenTerm := w.block(s.Body, thenSt)
		elseSt := clone(st)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			replace(st, mergeMin(thenSt, elseSt))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.exprs(st, s.Cond)
		}
		bodySt := clone(st)
		w.block(s.Body, bodySt)
		if s.Post != nil {
			w.stmt(s.Post, bodySt)
		}
		replace(st, mergeMin(st, bodySt)) // body may run zero times
	case *ast.RangeStmt:
		w.exprs(st, s.X)
		bodySt := clone(st)
		w.block(s.Body, bodySt)
		replace(st, mergeMin(st, bodySt))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.branches(s, st)
	case *ast.SendStmt:
		w.exprs(st, s.Chan, s.Value)
	case *ast.IncDecStmt:
		w.exprs(st, s.X)
	}
	return false
}

// branches interprets switch/select statements: each clause runs on a
// clone of the incoming state and the outgoing state is the pessimistic
// merge of the clauses that can fall through.
func (w *Walker) branches(s ast.Stmt, st State) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.exprs(st, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.stmt(s.Assign, st)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var outs []State
	hasDefault := false
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			w.exprs(st, cl.List...)
			if cl.List == nil {
				hasDefault = true
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				w.stmt(cl.Comm, st)
			}
			body = cl.Body
		}
		clSt := clone(st)
		if !w.stmts(body, clSt) {
			outs = append(outs, clSt)
		}
	}
	if !hasDefault {
		outs = append(outs, clone(st)) // no clause may match
	}
	if len(outs) == 0 {
		return // every clause terminates; state past the switch is moot
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = mergeMin(merged, o)
	}
	replace(st, merged)
}

// exprs walks expressions in evaluation context st: mutex operations
// update st, other calls go to the Call hook, and function literals are
// interpreted as independent roots.
func (w *Walker) exprs(st State, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				w.Func(n.Body)
				return false
			case *ast.CallExpr:
				if mutexExpr, op := MutexOp(w.Info, n); mutexExpr != nil {
					w.apply(st, mutexExpr, op, n.Pos())
					return false
				}
				if w.Call != nil {
					w.Call(st, n, false)
				}
			}
			return true
		})
	}
}

func clone(st State) State {
	out := make(State, len(st))
	for k, v := range st {
		cp := *v
		out[k] = &cp
	}
	return out
}

// replace overwrites dst's contents with src's.
func replace(dst, src State) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// mergeMin is the pessimistic join: a lock counts as held only if both
// paths hold it.
func mergeMin(a, b State) State {
	out := make(State)
	for k, av := range a {
		bv := b[k]
		if bv == nil {
			continue
		}
		d := min(av.Depth, bv.Depth)
		if d > 0 {
			out[k] = &Held{Depth: d, Class: av.Class}
		}
	}
	return out
}
