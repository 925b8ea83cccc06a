// Package lockheld enforces the *Locked naming convention used around
// the harness's shared state (cluster rank tables, checkpoint/recovery
// bookkeeping): a function whose name ends in "Locked" documents that it
// must be called with its receiver's mutex already held. The analyzer
// checks both directions of the contract —
//
//   - a *Locked function must not lock or unlock its own receiver's
//     mutex (doing so either deadlocks or silently drops the caller's
//     critical section), and
//   - every call to a *Locked function must hold the corresponding
//     mutex on every path reaching the call.
//
// Hold tracking is package lockflow's conservative, path-sensitive
// interpretation of the enclosing function body, shared with lockorder.
package lockheld

import (
	"go/ast"
	"go/types"
	"strings"

	"samft/internal/lint/analysis"
	"samft/internal/lint/lockflow"
)

// Analyzer is the lockheld check.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc: "functions suffixed Locked must not lock their receiver's " +
		"mutex, and their callers must hold it on every path to the call",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// fn is the function currently being checked.
	fnName   string
	recvName string
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.fnName = fd.Name.Name
	c.recvName = receiverName(fd)

	if strings.HasSuffix(c.fnName, "Locked") {
		c.checkNoSelfLock(fd)
	}
	// Second half of the contract: every *Locked call site, including a
	// spawned one, against the locks held on every path reaching it.
	w := &lockflow.Walker{
		Info: c.pass.Pkg.Info,
		Call: func(st lockflow.State, call *ast.CallExpr, _ bool) { c.checkLockedCall(call, st) },
	}
	w.Func(fd.Body)
}

// checkNoSelfLock enforces the first half of the contract: inside
// fooLocked, any Lock/Unlock of the receiver's own mutex (or, for a
// package-level fooLocked, of a package-level mutex) is a violation.
func (c *checker) checkNoSelfLock(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		mutexExpr, op := lockflow.MutexOp(c.pass.Pkg.Info, call)
		if mutexExpr == nil {
			return true
		}
		mutex := types.ExprString(mutexExpr)
		selfOwned := false
		if c.recvName != "" {
			selfOwned = strings.HasPrefix(mutex, c.recvName+".")
		} else {
			selfOwned = !strings.Contains(mutex, ".") // package-level mu
		}
		if selfOwned {
			c.pass.Reportf(call.Pos(),
				"%s is declared *Locked (runs with %s held) but calls %s.%s inside",
				c.fnName, mutex, mutex, op)
		}
		return true
	})
}

// checkLockedCall verifies one call of a *Locked function against the
// current lock state.
func (c *checker) checkLockedCall(call *ast.CallExpr, st lockflow.State) {
	name, owner, ok := lockedCallee(call)
	if !ok {
		return
	}
	// Inside fooLocked, calls to the same receiver's other *Locked
	// helpers are covered by the caller's obligation.
	if strings.HasSuffix(c.fnName, "Locked") && owner == c.recvName {
		return
	}
	if holdsFor(st, owner) {
		return
	}
	target := name
	if owner != "" {
		target = owner + "." + name
	}
	c.pass.Reportf(call.Pos(),
		"call to %s without holding %s mutex on every path (callers of *Locked functions must hold the lock)",
		target, ownerDesc(owner))
}

func ownerDesc(owner string) string {
	if owner == "" {
		return "the package"
	}
	return owner + "'s"
}

// lockedCallee decodes a call of a *Locked function: its name and the
// expression owning the mutex ("" for package-level functions).
func lockedCallee(call *ast.CallExpr) (name, owner string, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if strings.HasSuffix(fun.Name, "Locked") {
			return fun.Name, "", true
		}
	case *ast.SelectorExpr:
		if strings.HasSuffix(fun.Sel.Name, "Locked") {
			return fun.Sel.Name, types.ExprString(fun.X), true
		}
	}
	return "", "", false
}

// holdsFor reports whether st holds any mutex belonging to owner: a
// field mutex like "c.mu" for owner "c", or a package-level mutex
// (dotless key) for owner "".
func holdsFor(st lockflow.State, owner string) bool {
	for key, e := range st {
		if e.Depth <= 0 {
			continue
		}
		if owner == "" {
			if !strings.Contains(key, ".") {
				return true
			}
		} else if strings.HasPrefix(key, owner+".") {
			return true
		}
	}
	return false
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
