// Package noalloc keeps annotated hot paths heap-allocation-free at
// lint time instead of benchmark time. A function marked
//
//	//samlint:hotpath
//
// in its doc comment — and everything it transitively calls, across
// package boundaries — must not contain an allocating construct:
//
//   - make / new
//   - append (the backing array may grow)
//   - &T{...} and slice/map composite literals
//   - function literals (closure capture)
//   - implicit conversion of a non-pointer-shaped value to an interface
//     parameter (boxing)
//   - string concatenation and string<->[]byte conversions
//   - go statements
//   - calls into fmt or reflect (package-level functions)
//
// Per-function "may allocate at these sites" summaries propagate
// bottom-up through the call graph as facts, so a regression buried in a
// helper three calls below Endpoint.Send is reported — at the
// allocation site, naming the hot-path root that reaches it. A site
// excused with //samlint:allow noalloc is excluded from the summary
// itself, so one annotation covers every hot path that reaches it.
//
// Three deliberate approximations keep the signal usable. Error and
// panic paths are cold: an if-body guarded by an error != nil test,
// ending in panic, or returning a freshly built non-nil error may
// allocate freely, since a path that fires once on failure does not
// affect steady-state cost. A function annotated //samlint:coldpath
// contributes an empty summary — it marks one-time amortized work (the
// codec's per-type plan compilation, cached forever after the first
// call) that a hot path may reach but only pays once. And indirect
// calls — function values, stored closures, interface methods —
// contribute no summary; the compiled-codec hot path crosses exactly
// such a boundary (plan closures), which is why codec's own entry
// points carry their own hotpath annotations.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"samft/internal/lint/analysis"
)

// Analyzer is the noalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //samlint:hotpath (and their transitive " +
		"callees) must be free of heap allocation",
	FactTypes: []analysis.Fact{(*allocFact)(nil)},
	Run:       run,
}

// allocSite is one allocating construct.
type allocSite struct {
	Pos  token.Pos
	What string
}

// allocFact summarizes the allocation sites a function may reach,
// directly or through calls — minus any excused with //samlint:allow
// noalloc. Exported per function so downstream packages' hot paths see
// through their dependencies.
type allocFact struct{ Sites []allocSite }

func (*allocFact) AFact() {}

// bannedPkgs are the std packages whose package-level functions are
// categorically off the hot path (they allocate, reflect, or format).
var bannedPkgs = map[string]bool{"fmt": true, "reflect": true}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		summary: make(map[*types.Func][]allocSite),
	}
	var hotpaths []*ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
			if isHotpath(fd) {
				hotpaths = append(hotpaths, fd)
			}
		}
	}

	for fn := range c.decls {
		c.summarize(fn, nil)
	}
	for fn, sites := range c.summary {
		if len(sites) > 0 {
			pass.ExportObjectFact(fn, &allocFact{Sites: sites})
		}
	}

	sort.Slice(hotpaths, func(i, j int) bool { return hotpaths[i].Pos() < hotpaths[j].Pos() })
	reported := make(map[token.Pos]bool)
	for _, fd := range hotpaths {
		fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		for _, site := range c.summary[fn] {
			if reported[site.Pos] {
				continue
			}
			reported[site.Pos] = true
			pass.Reportf(site.Pos,
				"%s on the zero-alloc hot path rooted at //samlint:hotpath %s",
				site.What, fn.Name())
		}
	}
	return nil
}

func isHotpath(fd *ast.FuncDecl) bool  { return hasDirective(fd, "//samlint:hotpath") }
func isColdpath(fd *ast.FuncDecl) bool { return hasDirective(fd, "//samlint:coldpath") }

func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		if cm.Text == directive || strings.HasPrefix(cm.Text, directive+" ") {
			return true
		}
	}
	return false
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	summary map[*types.Func][]allocSite
}

// allowed reports whether a site at pos is excused; consulting the index
// marks the directive used (staleallow bookkeeping).
func (c *checker) allowed(pos token.Pos) bool {
	if c.pass.Allows == nil {
		return false
	}
	p := c.pass.Fset.Position(pos)
	return c.pass.Allows.Allowed(p, c.pass.Analyzer.Name, c.pass.Analyzer.Key())
}

// summarize computes (memoized) fn's reachable allocation sites.
// visiting breaks recursion cycles; a recursive function converges to
// its directly-visible sites, which is sound because every site still
// appears in the summary of whichever function contains it.
func (c *checker) summarize(fn *types.Func, visiting map[*types.Func]bool) []allocSite {
	if s, ok := c.summary[fn]; ok {
		return s
	}
	if visiting[fn] {
		return nil
	}
	fd := c.decls[fn]
	if fd == nil {
		return nil
	}
	if isColdpath(fd) {
		c.summary[fn] = nil
		return nil
	}
	if visiting == nil {
		visiting = make(map[*types.Func]bool)
	}
	visiting[fn] = true

	dedup := make(map[token.Pos]bool)
	var sites []allocSite
	add := func(pos token.Pos, what string) {
		if dedup[pos] || c.allowed(pos) {
			dedup[pos] = true
			return
		}
		dedup[pos] = true
		sites = append(sites, allocSite{Pos: pos, What: what})
	}
	c.walk(fd.Body, add, visiting)

	delete(visiting, fn)
	sort.Slice(sites, func(i, j int) bool { return sites[i].Pos < sites[j].Pos })
	c.summary[fn] = sites
	return sites
}

// calleeSites resolves a call's contribution: local summaries for this
// package, imported facts for dependencies, the ban list for std.
func (c *checker) calleeSites(call *ast.CallExpr, visiting map[*types.Func]bool) ([]allocSite, string) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil, "" // indirect call: unknown target, assumed clean
	}
	fn, ok := c.pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil, ""
	}
	if fn.Pkg() == nil {
		return nil, ""
	}
	if fn.Pkg() == c.pass.Pkg.Types {
		return c.summarize(fn, visiting), ""
	}
	if bannedPkgs[fn.Pkg().Path()] && fn.Type().(*types.Signature).Recv() == nil {
		return nil, "call to " + fn.Pkg().Name() + "." + fn.Name()
	}
	var f allocFact
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Sites, ""
	}
	return nil, ""
}

// walk records every allocating construct reachable from n on a warm
// path. Cold branches (error returns, panics) and nested function
// literals' *bodies* are skipped — the literal itself is already the
// allocation; what it would do when invoked is a separate (indirect,
// unknowable) path.
func (c *checker) walk(body ast.Node, add func(token.Pos, string), visiting map[*types.Func]bool) {
	info := c.pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if c.coldIf(n) {
				// Walk init/cond/else normally; the guarded body is cold.
				if n.Init != nil {
					c.walk(n.Init, add, visiting)
				}
				c.walk(n.Cond, add, visiting)
				if n.Else != nil {
					c.walk(n.Else, add, visiting)
				}
				return false
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement (allocates a goroutine)")
			return false
		case *ast.FuncLit:
			add(n.Pos(), "function literal (closure capture allocates)")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "&composite literal (escapes to the heap)")
					// Still walk inside for nested allocations.
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(n.Pos(), "slice/map literal (allocates backing storage)")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(n.Pos(), "string concatenation")
					}
				}
			}
		case *ast.CallExpr:
			return c.call(n, add, visiting)
		}
		return true
	})
}

// call classifies one call expression, returning whether to keep walking
// its children.
func (c *checker) call(call *ast.CallExpr, add func(token.Pos, string), visiting map[*types.Func]bool) bool {
	info := c.pass.Pkg.Info

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "append (may grow the backing array)")
			case "panic":
				return false // panic path is cold; skip its argument
			}
			return true
		}
	}

	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.conversion(tv.Type, call, add)
		}
		return true
	}

	// Interface boxing at argument positions.
	c.boxedArgs(call, add)

	sites, banned := c.calleeSites(call, visiting)
	if banned != "" {
		add(call.Pos(), banned+" (fmt/reflect are off the hot path)")
		return true
	}
	for _, s := range sites {
		add(s.Pos, s.What)
	}
	return true
}

// conversion flags string<->[]byte/[]rune conversions, which copy.
func (c *checker) conversion(to types.Type, call *ast.CallExpr, add func(token.Pos, string)) {
	from := c.pass.Pkg.Info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	if (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from)) {
		add(call.Pos(), "string conversion (copies the bytes)")
	}
}

// boxedArgs flags arguments implicitly converted to interface parameters
// when the concrete value is not pointer-shaped (pointers, maps, chans,
// and funcs fit in the interface word; everything else escapes).
func (c *checker) boxedArgs(call *ast.CallExpr, add func(token.Pos, string)) {
	info := c.pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		add(arg.Pos(), "implicit conversion to interface (boxes the value)")
	}
}

// pointerShaped reports whether values of t fit in one word, so
// converting them to an interface does not allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// coldIf reports whether an if statement guards a cold path: its body
// ends by panicking or by returning a freshly built non-nil error, or
// its condition tests an error against nil ("err != nil" failure
// handling runs once per failure, not per op).
func (c *checker) coldIf(s *ast.IfStmt) bool {
	if n := len(s.Body.List); n > 0 {
		switch last := s.Body.List[n-1].(type) {
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range last.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
					continue
				}
				if tv, ok := c.pass.Pkg.Info.Types[r]; ok && tv.Type != nil && isErrorType(tv.Type) {
					return true
				}
			}
		}
	}
	cold := false
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if tv, ok := c.pass.Pkg.Info.Types[side]; ok && tv.Type != nil && isErrorType(tv.Type) {
				cold = true
				return false
			}
		}
		return true
	})
	return cold
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
}
