// Package detiter flags `range` statements over maps whose bodies reach
// a message send or trace emit. Go randomizes map iteration order per
// run, so a map-ordered sequence of sends or emitted events differs from
// run to run: wire traffic stops being reproducible and merged trace
// timelines lose their deterministic tie-breaks. The fix is to iterate a
// sorted snapshot of the keys; loops that merely collect into a slice
// (and sort before acting) are not flagged.
package detiter

import (
	"go/ast"
	"go/types"

	"samft/internal/lint/analysis"
)

// Analyzer is the detiter check.
var Analyzer = &analysis.Analyzer{
	Name: "detiter",
	Run:  run,
}

// sendRoots are callee names that directly put bytes on the wire or an
// event on a trace track. Reaching one of these (directly or through
// same-package helpers) from a map-range body is order-sensitive.
var sendRoots = map[string]bool{
	"Send": true, "SendParts": true, "send": true, "Emit": true, "emit": true, "txSend": true,
}

func run(pass *analysis.Pass) error {
	sensitive := sensitiveFuncs(pass.Pkg.Files)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if callee := firstSensitiveCall(rng.Body, sensitive); callee != "" {
				pass.Reportf(rng.Pos(),
					"map iteration order reaches a send/emit via %q; iterate a sorted key snapshot so wire and trace order is deterministic",
					callee)
			}
			return true
		})
	}
	return nil
}

// sensitiveFuncs computes, by fixed point over the package's by-name
// call graph, the set of function names that can reach a send/emit. Name
// resolution is deliberately coarse (method names are matched without
// receiver types): a false match costs one spurious sort, a miss costs a
// nondeterministic wire.
func sensitiveFuncs(files []*ast.File) map[string]bool {
	calls := make(map[string]map[string]bool) // function name -> callee names
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			set := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if name := calleeName(n); name != "" {
					set[name] = true
				}
				return true
			})
			calls[fd.Name.Name] = set
		}
	}
	sensitive := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if sensitive[fn] {
				continue
			}
			for c := range callees {
				if sendRoots[c] || sensitive[c] {
					sensitive[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return sensitive
}

func calleeName(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// firstSensitiveCall returns the name of the first call in body that is
// (or reaches) a send/emit, or "" if none.
func firstSensitiveCall(body *ast.BlockStmt, sensitive map[string]bool) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if name := calleeName(n); name != "" && (sendRoots[name] || sensitive[name]) {
			found = name
			return false
		}
		return true
	})
	return found
}
