// Package lockorder builds the module's lock-acquisition graph and
// verifies it against the declared lock hierarchy. Mutexes are grouped
// into named classes with a field annotation:
//
//	mu sync.Mutex //samlint:lockclass netsim.network
//
// and the permitted nestings between classes are declared with
// file-level directives:
//
//	//samlint:lockorder netsim.network < trace.tracer -- Track runs under n.mu
//
// meaning "a trace.tracer lock may be acquired while a netsim.network
// lock is held". The analyzer interprets every function body with the
// held-mutex walker it shares with lockheld (package lockflow), propagates
// "may acquire" summaries through the call graph as cross-package facts
// (so a nesting hidden behind any depth of calls — even across package
// boundaries — is still observed), and reports
//
//   - any observed nesting between two classes that no directive
//     declares (including self-nesting: two instances of one class), and
//   - any cycle in the union of declared and observed nestings, which is
//     the classic deadlock shape.
//
// The netsim leaf-lock contract (netsim.go: Endpoint.mu and Network.mu
// must never nest, in either order) falls out of the general rule: both
// classes are annotated and no directive relates them, so any nesting
// between them is a diagnostic.
//
// Approximations: calls through interfaces and stored function values
// contribute no summary (their targets are unknown), and every function
// literal is analyzed as its own root rather than as running under its
// creator's locks — a literal is almost always a callback or spawned
// task body that executes outside the critical section that created it.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"samft/internal/lint/analysis"
	"samft/internal/lint/lockflow"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "verify every observed lock nesting is declared with " +
		"//samlint:lockorder and that the declared order is acyclic",
	FactTypes: []analysis.Fact{(*classFact)(nil), (*acquiresFact)(nil), (*graphFact)(nil)},
	Run:       run,
	Finish:    finish,
}

// classFact marks a mutex object (struct field or package-level var) as
// belonging to a named lock class.
type classFact struct{ Class string }

func (*classFact) AFact() {}

// acquiresFact summarizes the lock classes a function may acquire,
// directly or transitively. Downstream packages import it to see through
// calls into their dependencies.
type acquiresFact struct{ Classes []string }

func (*acquiresFact) AFact() {}

// edge is one observed nesting: To acquired while From held.
type edge struct {
	From, To string
	Pos      token.Pos
}

// decl is one //samlint:lockorder From < To directive.
type decl struct {
	From, To string
	Pos      token.Pos
}

// graphFact carries one package's contribution to the module graph:
// nestings its code was observed to perform and orderings its files
// declare. Finish correlates all of them.
type graphFact struct {
	Edges []edge
	Decls []decl
}

func (*graphFact) AFact() {}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		classes: make(map[types.Object]string),
		summary: make(map[*types.Func][]string),
		decls:   make(map[*types.Func]*ast.FuncDecl),
		edges:   make(map[[2]string]token.Pos),
	}
	c.collectClasses()
	declared := c.collectDecls()
	c.collectFuncs()
	for fn := range c.decls {
		c.summarize(fn, nil)
	}
	walker := c.walker()
	for _, fd := range c.orderedDecls() {
		walker.Func(fd.Body)
	}

	gf := &graphFact{Decls: declared}
	for key, pos := range c.edges {
		gf.Edges = append(gf.Edges, edge{From: key[0], To: key[1], Pos: pos})
	}
	sort.Slice(gf.Edges, func(i, j int) bool { return gf.Edges[i].Pos < gf.Edges[j].Pos })
	if len(gf.Edges) > 0 || len(gf.Decls) > 0 {
		pass.ExportPackageFact(gf)
	}
	for fn, classes := range c.summary {
		if len(classes) > 0 {
			pass.ExportObjectFact(fn, &acquiresFact{Classes: classes})
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	classes map[types.Object]string // mutex object -> class, this package
	summary map[*types.Func][]string
	decls   map[*types.Func]*ast.FuncDecl
	edges   map[[2]string]token.Pos // observed nesting -> first position
}

// parseDirective splits "//samlint:<verb> body -- reason" and returns
// the body fields.
func parseDirective(text, verb string) ([]string, bool) {
	body, ok := strings.CutPrefix(text, "//samlint:"+verb)
	if !ok {
		return nil, false
	}
	if i := strings.Index(body, "--"); i >= 0 {
		body = body[:i]
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return nil, false
	}
	return fields, true
}

// collectClasses resolves //samlint:lockclass annotations on struct
// fields and package-level vars to their types.Object and exports the
// class as a fact (so importing packages see it too).
func (c *checker) collectClasses() {
	note := func(names []*ast.Ident, groups ...*ast.CommentGroup) {
		class := ""
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, cm := range g.List {
				if fields, ok := parseDirective(cm.Text, "lockclass"); ok {
					class = fields[0]
				}
			}
		}
		if class == "" {
			return
		}
		for _, name := range names {
			obj := c.pass.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			if !lockflow.IsSyncMutex(obj.Type()) {
				c.pass.Reportf(name.Pos(),
					"//samlint:lockclass %s on %s, which is not a sync.Mutex or sync.RWMutex", class, name.Name)
				continue
			}
			c.classes[obj] = class
			c.pass.ExportObjectFact(obj, &classFact{Class: class})
		}
	}
	for _, f := range c.pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					note(field.Names, field.Doc, field.Comment)
				}
			case *ast.ValueSpec:
				note(n.Names, n.Doc, n.Comment)
			}
			return true
		})
	}
}

// collectDecls parses the package's //samlint:lockorder directives.
func (c *checker) collectDecls() []decl {
	var out []decl
	for _, f := range c.pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				fields, ok := parseDirective(cm.Text, "lockorder")
				if !ok {
					continue
				}
				if len(fields) != 3 || fields[1] != "<" {
					c.pass.Reportf(cm.Pos(),
						"malformed //samlint:lockorder directive (want \"//samlint:lockorder outer < inner\")")
					continue
				}
				out = append(out, decl{From: fields[0], To: fields[2], Pos: cm.Pos()})
			}
		}
	}
	return out
}

func (c *checker) collectFuncs() {
	for _, f := range c.pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := c.pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
		}
	}
}

// orderedDecls returns the package's function decls in source order, so
// edge positions (first observation wins) are deterministic.
func (c *checker) orderedDecls() []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(c.decls))
	for _, fd := range c.decls {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// classOf resolves the lock class of the mutex expression in
// <expr>.Lock(): the object behind the final selector (field or var),
// whether declared here or imported.
func (c *checker) classOf(mutexExpr ast.Expr) string {
	var id *ast.Ident
	switch e := mutexExpr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	obj := c.pass.Pkg.Info.Uses[id]
	if obj == nil {
		obj = c.pass.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return ""
	}
	if cl, ok := c.classes[obj]; ok {
		return cl
	}
	var f classFact
	if c.pass.ImportObjectFact(obj, &f) {
		return f.Class
	}
	return ""
}

// calleeFunc resolves a call to its static *types.Func, or nil for
// indirect calls (function values, interface methods resolve to the
// interface's method object, which carries no summary).
func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := c.pass.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// acquiresOf returns the classes fn may acquire: the local summary for
// this package's functions, the imported fact for dependencies.
func (c *checker) acquiresOf(fn *types.Func) []string {
	if fn == nil {
		return nil
	}
	if fn.Pkg() == c.pass.Pkg.Types {
		return c.summarize(fn, nil)
	}
	var f acquiresFact
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Classes
	}
	return nil
}

// summarize computes (memoized) the classes fn may acquire, following
// same-package calls; visiting breaks recursion cycles (a recursive
// function's summary converges to its non-recursive acquisitions, which
// is sound for edge detection because every acquisition still appears in
// some caller's walk).
func (c *checker) summarize(fn *types.Func, visiting map[*types.Func]bool) []string {
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
	if visiting == nil {
		visiting = make(map[*types.Func]bool)
	}
	visiting[fn] = true
	set := make(map[string]bool)
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// The goroutine acquires its locks on its own stack,
				// not under the spawner's critical section.
				return false
			case *ast.FuncLit:
				// A literal is almost always a callback or task body that
				// runs outside this call's critical sections (the cluster
				// spawn closure is the canonical case); its interior
				// nestings are still checked — emitEdges walks every
				// literal as an independent root.
				return false
			case *ast.CallExpr:
				if mutexExpr, op := lockflow.MutexOp(c.pass.Pkg.Info, n); mutexExpr != nil {
					if op == "Lock" || op == "RLock" {
						if cl := c.classOf(mutexExpr); cl != "" {
							set[cl] = true
						}
					}
					return true
				}
				for _, cl := range c.acquiresOf2(n, visiting) {
					set[cl] = true
				}
			}
			return true
		})
	}
	walk(fd.Body)
	delete(visiting, fn)
	out := make([]string, 0, len(set))
	for cl := range set {
		out = append(out, cl)
	}
	sort.Strings(out)
	c.summary[fn] = out
	return out
}

// acquiresOf2 is acquiresOf for a call site encountered during
// summarization, threading the visiting set through same-package
// recursion.
func (c *checker) acquiresOf2(call *ast.CallExpr, visiting map[*types.Func]bool) []string {
	fn := c.calleeFunc(call)
	if fn == nil {
		return nil
	}
	if fn.Pkg() == c.pass.Pkg.Types {
		if s, ok := c.summary[fn]; ok {
			return s
		}
		return c.summarize(fn, visiting)
	}
	var f acquiresFact
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Classes
	}
	return nil
}

// --- flow-sensitive edge emission -----------------------------------

// walker builds the lockflow interpreter that records edges: on every
// acquisition (a direct Lock/RLock, or a call with a non-empty acquires
// summary) an edge from each currently-held class.
func (c *checker) walker() *lockflow.Walker {
	return &lockflow.Walker{
		Info:    c.pass.Pkg.Info,
		ClassOf: c.classOf,
		Acquire: func(st lockflow.State, class string, pos token.Pos, relock bool) {
			// Same-class nesting through a *different* expression is a real
			// ordering edge; through the same expression it is a relock.
			if class != "" {
				c.recordAcquire(st, []string{class}, pos, relock)
			}
		},
		Call: func(st lockflow.State, call *ast.CallExpr, spawned bool) {
			if spawned {
				return // the goroutine acquires its locks on its own stack
			}
			if acq := c.acquiresOf(c.calleeFunc(call)); len(acq) > 0 {
				c.recordAcquire(st, acq, call.Pos(), false)
			}
		},
	}
}

// recordAcquire notes that the classes in acquired are taken at pos
// while st's classes are held.
func (c *checker) recordAcquire(st lockflow.State, acquired []string, pos token.Pos, relock bool) {
	var held []string
	for _, e := range st {
		if e.Depth > 0 && e.Class != "" {
			held = append(held, e.Class)
		}
	}
	sort.Strings(held)
	for _, from := range held {
		for _, to := range acquired {
			if relock && from == to {
				// Re-locking the very same mutex expression is a plain
				// deadlock, not an ordering question; depth bookkeeping
				// already models it and lockheld's domain covers it.
				continue
			}
			key := [2]string{from, to}
			if _, ok := c.edges[key]; !ok {
				c.edges[key] = pos
			}
		}
	}
}

// --- module-wide correlation ----------------------------------------

func finish(pass *analysis.Pass) error {
	var edges []edge
	var decls []decl
	var g graphFact
	for _, pf := range pass.AllPackageFacts(&g) {
		f := pf.Fact.(*graphFact)
		edges = append(edges, f.Edges...)
		decls = append(decls, f.Decls...)
	}

	declared := make(map[[2]string]bool)
	for _, d := range decls {
		declared[[2]string{d.From, d.To}] = true
	}

	// Undeclared observed nestings.
	seen := make(map[[2]string]bool)
	for _, e := range edges {
		key := [2]string{e.From, e.To}
		if declared[key] || seen[key] {
			continue
		}
		seen[key] = true
		if e.From == e.To {
			pass.Report(analysis.Diagnostic{
				Pos: e.Pos, Analyzer: pass.Analyzer.Name, Category: pass.Analyzer.Key(),
				Message: "lock class \"" + e.To + "\" acquired while another \"" + e.From +
					"\" instance is held; self-nesting is not declared (//samlint:lockorder " +
					e.From + " < " + e.To + ")",
			})
			continue
		}
		pass.Report(analysis.Diagnostic{
			Pos: e.Pos, Analyzer: pass.Analyzer.Name, Category: pass.Analyzer.Key(),
			Message: "lock class \"" + e.To + "\" acquired while \"" + e.From +
				"\" is held; this nesting is not declared (//samlint:lockorder " +
				e.From + " < " + e.To + ", or restructure to honor the lock hierarchy)",
		})
	}

	// Cycles in the union of declared and observed orderings: sort edges
	// for determinism, then DFS.
	type arc struct {
		to  string
		pos token.Pos
	}
	adj := make(map[string][]arc)
	addArc := func(from, to string, pos token.Pos) {
		adj[from] = append(adj[from], arc{to, pos})
	}
	for _, d := range decls {
		addArc(d.From, d.To, d.Pos)
	}
	for _, e := range edges {
		addArc(e.From, e.To, e.Pos)
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		sort.Slice(adj[n], func(i, j int) bool { return adj[n][i].to < adj[n][j].to })
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	reported := make(map[string]bool) // one report per cycle-participating class set
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		color[n] = grey
		stack = append(stack, n)
		for _, a := range adj[n] {
			switch color[a.to] {
			case white:
				dfs(a.to)
			case grey:
				// Found a back arc: the cycle is the stack suffix from a.to.
				i := len(stack) - 1
				for i >= 0 && stack[i] != a.to {
					i--
				}
				cyc := append(append([]string{}, stack[i:]...), a.to)
				key := strings.Join(cyc, "<")
				if !reported[key] {
					reported[key] = true
					pass.Report(analysis.Diagnostic{
						Pos: a.pos, Analyzer: pass.Analyzer.Name, Category: pass.Analyzer.Key(),
						Message: "lock-order cycle: " + strings.Join(cyc, " < ") +
							" (two goroutines interleaving these acquisitions can deadlock)",
					})
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
	return nil
}
