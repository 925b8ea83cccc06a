// Package tagflow checks the module's message tags end to end: the tag
// namespace, and the dataflow through it.
//
// Namespace. PVM-style src/tag matching silently mis-routes when two
// subsystems pick the same tag value, and a tag below TagUserBase collides
// with the reserved notification range — neither failure is caught at
// runtime, messages just match the wrong receives. So every tag constant
// (package-level consts named Tag*) must have a unique value at or above
// TagUserBase, and a constant tag argument at a Send/Recv/TryRecv/Probe call
// site must name a registered tag (AnyTag in receive positions only).
//
// Dataflow. The remaining silent-wedge holes:
//
//   - a constant tag passed to Send must have receive evidence somewhere
//     in the module — a Recv/TryRecv/Probe with that constant, a .Tag
//     comparison against it, or a switch case on a .Tag expression.
//     A tag that is sent but never matched anywhere wedges the sender's
//     partner forever, with no runtime error to point at; and
//
//   - where the payload's provenance is visible — the send site's bytes
//     come from codec.Pack (possibly through a helper like
//     sam.encodeHead) and the receive side type-asserts the result of
//     codec.Unpack — the packed type must be among the types the
//     receivers of that tag assert. Packing *wire and asserting
//     *otherThing is a guaranteed decode-drop.
//
// The dataflow checks are interprocedural: per-function pack/unpack provenance
// ("returns bytes packed from T" / "asserts unpacked values to T")
// travels as object facts, per-package send sites and receive evidence
// travel as package facts, and the Finish hook correlates them
// module-wide. Raw []byte payloads (netsim frames, benchmarks) have no
// provenance and are exempt from the type check; dynamic (non-constant)
// tags are exempt from both. Receive evidence is associated with
// payload types at function granularity: a dispatcher that compares
// m.Tag against a constant and asserts unpacked values is taken to
// receive those types for that tag.
package tagflow

import (
	"cmp"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"samft/internal/lint/analysis"
)

// Analyzer is the tagflow check.
var Analyzer = &analysis.Analyzer{
	Name: "tagflow",
	Doc: "tag constants are unique and at or above TagUserBase, call sites " +
		"use registered tags, every constant tag sent has receive evidence, " +
		"and packed payload types match what receivers assert",
	FactTypes: []analysis.Fact{(*packsFact)(nil), (*unpacksFact)(nil), (*flowFact)(nil)},
	Run:       run,
	Finish:    finish,
}

const codecPath = "samft/internal/codec"

// packsFact marks a function whose returned bytes are produced by
// codec.Pack, listing the packed types (full type strings).
type packsFact struct{ Types []string }

func (*packsFact) AFact() {}

// unpacksFact marks a function that type-asserts values produced by
// codec.Unpack, listing the asserted types.
type unpacksFact struct{ Types []string }

func (*unpacksFact) AFact() {}

// sendSite is one Send call with a constant tag.
type sendSite struct {
	Pos     token.Pos
	Tag     int64
	TagName string
	Packed  []string // payload provenance; empty = raw bytes, unchecked
}

// recvSite is evidence that a tag is received or dispatched, with the
// payload types the evidencing function asserts (may be empty).
type recvSite struct {
	Tag   int64
	Types []string
}

// tagUse is one messaging call with a constant tag, wildcard included.
type tagUse struct {
	Pos    token.Pos
	Method string
	Tag    int64
}

// flowFact is one package's constant-tag call sites, and of those its
// sends and receive evidence.
type flowFact struct {
	Uses  []tagUse
	Sends []sendSite
	Recvs []recvSite
}

func (*flowFact) AFact() {}

// tagMethods maps messaging method names to their tag argument index:
// Send(dst, tag, payload), SendParts(dst, tag, payload, body),
// Recv/Take/TryRecv/Probe(src, tag).
var tagMethods = map[string]int{"Send": 1, "SendParts": 1, "Recv": 1, "Take": 1, "TryRecv": 1, "Probe": 1}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		packs:   make(map[*types.Func][]string),
		unpacks: make(map[*types.Func][]string),
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	for fn := range c.decls {
		c.packsOf(fn, nil)
		c.unpacksOf(fn, nil)
	}
	for fn, ts := range c.packs {
		if len(ts) > 0 {
			pass.ExportObjectFact(fn, &packsFact{Types: ts})
		}
	}
	for fn, ts := range c.unpacks {
		if len(ts) > 0 {
			pass.ExportObjectFact(fn, &unpacksFact{Types: ts})
		}
	}

	var flow flowFact
	for fn, fd := range c.decls {
		c.collectFlow(fn, fd, &flow)
	}
	sort.Slice(flow.Uses, func(i, j int) bool { return flow.Uses[i].Pos < flow.Uses[j].Pos })
	sort.Slice(flow.Sends, func(i, j int) bool { return flow.Sends[i].Pos < flow.Sends[j].Pos })
	sort.Slice(flow.Recvs, func(i, j int) bool {
		if flow.Recvs[i].Tag != flow.Recvs[j].Tag {
			return flow.Recvs[i].Tag < flow.Recvs[j].Tag
		}
		return strings.Join(flow.Recvs[i].Types, ",") < strings.Join(flow.Recvs[j].Types, ",")
	})
	if len(flow.Uses) > 0 || len(flow.Recvs) > 0 {
		pass.ExportPackageFact(&flow)
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	packs   map[*types.Func][]string
	unpacks map[*types.Func][]string
}

// codecCall reports whether call invokes codec.<name>.
func (c *checker) codecCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := c.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	// Match the real module path, or any package simply named "codec" so
	// fixture trees (whose import paths are src-relative) exercise the
	// same provenance logic — the codecregistered analyzer's convention.
	return fn.Pkg().Path() == codecPath || fn.Pkg().Name() == "codec"
}

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

func (c *checker) typeString(t types.Type) string {
	if t == nil {
		return ""
	}
	return types.TypeString(t, nil)
}

// packsOf computes (memoized) the types fn may pack: arguments of its
// direct codec.Pack calls plus the pack sets of its callees.
func (c *checker) packsOf(fn *types.Func, visiting map[*types.Func]bool) []string {
	if s, ok := c.packs[fn]; ok {
		return s
	}
	if fn.Pkg() != c.pass.Pkg.Types {
		var f packsFact
		if c.pass.ImportObjectFact(fn, &f) {
			return f.Types
		}
		return nil
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
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.codecCall(call, "Pack") && len(call.Args) == 1 {
			if ts := c.typeString(c.pass.Pkg.Info.Types[call.Args[0]].Type); ts != "" {
				set[ts] = true
			}
			return true
		}
		if callee := c.calleeFunc(call); callee != nil {
			for _, t := range c.packsOf(callee, visiting) {
				set[t] = true
			}
		}
		return true
	})
	delete(visiting, fn)
	out := sortedKeys(set)
	c.packs[fn] = out
	return out
}

// unpacksOf computes (memoized) the types fn asserts out of
// codec.Unpack results, plus its callees'.
func (c *checker) unpacksOf(fn *types.Func, visiting map[*types.Func]bool) []string {
	if s, ok := c.unpacks[fn]; ok {
		return s
	}
	if fn.Pkg() != c.pass.Pkg.Types {
		var f unpacksFact
		if c.pass.ImportObjectFact(fn, &f) {
			return f.Types
		}
		return nil
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

	// Pass 1: which local vars hold codec.Unpack results.
	unpacked := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !c.codecCall(call, "Unpack") {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := c.pass.Pkg.Info.Defs[id]; obj != nil {
				unpacked[obj] = true
			} else if obj := c.pass.Pkg.Info.Uses[id]; obj != nil {
				unpacked[obj] = true
			}
		}
		return true
	})
	// Pass 2: assertions on those vars, plus callee delegation.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || !unpacked[c.pass.Pkg.Info.Uses[id]] {
				return true
			}
			if n.Type != nil { // v.(T); v.(type) handled via TypeSwitch cases below
				if ts := c.typeString(c.pass.Pkg.Info.Types[n.Type].Type); ts != "" {
					set[ts] = true
				}
			}
		case *ast.TypeSwitchStmt:
			var x ast.Expr
			switch a := n.Assign.(type) {
			case *ast.AssignStmt:
				if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
					x = ta.X
				}
			case *ast.ExprStmt:
				if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
					x = ta.X
				}
			}
			id, ok := ast.Unparen(x).(*ast.Ident)
			if !ok || !unpacked[c.pass.Pkg.Info.Uses[id]] {
				return true
			}
			for _, stmt := range n.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, te := range cc.List {
					if ts := c.typeString(c.pass.Pkg.Info.Types[te].Type); ts != "" {
						set[ts] = true
					}
				}
			}
		case *ast.CallExpr:
			if callee := c.calleeFunc(n); callee != nil {
				for _, t := range c.unpacksOf(callee, visiting) {
					set[t] = true
				}
			}
		}
		return true
	})
	delete(visiting, fn)
	out := sortedKeys(set)
	c.unpacks[fn] = out
	return out
}

// collectFlow gathers fn's send sites and receive evidence.
func (c *checker) collectFlow(fn *types.Func, fd *ast.FuncDecl, flow *flowFact) {
	info := c.pass.Pkg.Info

	// Local payload provenance: var -> packed types, from single-call
	// assignments (b := p.encodeHead(w, r); b, err := codec.Pack(x)).
	prov := make(map[types.Object][]string)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		var packed []string
		if c.codecCall(call, "Pack") && len(call.Args) == 1 {
			if ts := c.typeString(info.Types[call.Args[0]].Type); ts != "" {
				packed = []string{ts}
			}
		} else if callee := c.calleeFunc(call); callee != nil {
			packed = c.packsOf(callee, nil)
		}
		if len(packed) == 0 {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				prov[obj] = packed
			} else if obj := info.Uses[id]; obj != nil {
				prov[obj] = packed
			}
		}
		return true
	})

	evidence := make(map[int64]bool)
	noteTag := func(v int64) {
		if v >= 0 {
			evidence[v] = true
		}
	}
	constVal := func(e ast.Expr) (int64, bool) {
		tv, ok := info.Types[e]
		if !ok || tv.Value == nil {
			return 0, false
		}
		return constant.Int64Val(constant.ToInt(tv.Value))
	}
	isTagSel := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Tag"
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			idx, ok := tagMethods[sel.Sel.Name]
			if !ok || len(n.Args) <= idx || info.Selections[sel] == nil {
				return true
			}
			v, ok := constVal(n.Args[idx])
			if !ok {
				return true // dynamic tag: not statically checkable
			}
			flow.Uses = append(flow.Uses, tagUse{Pos: n.Args[idx].Pos(), Method: sel.Sel.Name, Tag: v})
			if v < 0 {
				return true
			}
			if sel.Sel.Name != "Send" && sel.Sel.Name != "SendParts" {
				noteTag(v)
				return true
			}
			site := sendSite{Pos: n.Args[idx].Pos(), Tag: v, TagName: types.ExprString(n.Args[idx])}
			if len(n.Args) > 2 {
				switch payload := ast.Unparen(n.Args[2]).(type) {
				case *ast.Ident:
					if obj := info.Uses[payload]; obj != nil {
						site.Packed = prov[obj]
					}
				case *ast.CallExpr:
					if c.codecCall(payload, "Pack") && len(payload.Args) == 1 {
						if ts := c.typeString(info.Types[payload.Args[0]].Type); ts != "" {
							site.Packed = []string{ts}
						}
					} else if callee := c.calleeFunc(payload); callee != nil {
						site.Packed = c.packsOf(callee, nil)
					}
				}
			}
			flow.Sends = append(flow.Sends, site)
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if isTagSel(n.X) {
				if v, ok := constVal(n.Y); ok {
					noteTag(v)
				}
			}
			if isTagSel(n.Y) {
				if v, ok := constVal(n.X); ok {
					noteTag(v)
				}
			}
		case *ast.SwitchStmt:
			if n.Tag == nil || !isTagSel(n.Tag) {
				return true
			}
			for _, stmt := range n.Body.List {
				if cc, ok := stmt.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if v, ok := constVal(e); ok {
							noteTag(v)
						}
					}
				}
			}
		}
		return true
	})

	if len(evidence) == 0 {
		return
	}
	asserted := c.unpacksOf(fn, nil)
	for _, v := range sortedKeys(evidence) {
		flow.Recvs = append(flow.Recvs, recvSite{Tag: v, Types: asserted})
	}
}

// checkNamespace reports duplicate and below-base tag constants and call
// sites whose constant tag is not a registered one, and returns the
// registered values.
func checkNamespace(pass *analysis.Pass, uses []tagUse) map[int64]bool {
	// Package-level integer constants named Tag*. One ending in "Base" is an
	// allocation origin, not a sendable tag; reserved system tags
	// (TagTaskExit) register like any other.
	var tags []*types.Const
	val := make(map[*types.Const]int64)
	var base int64
	haveBase := false
	for _, p := range pass.All {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if !strings.HasPrefix(name, "Tag") && !strings.HasPrefix(name, "tag") {
				continue
			}
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			v, ok := constant.Int64Val(constant.ToInt(c.Val()))
			switch {
			case !ok:
			case name == "TagUserBase":
				base, haveBase = v, true
			case !strings.HasSuffix(name, "Base"):
				tags = append(tags, c)
				val[c] = v
			}
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Pos() < tags[j].Pos() })

	// The first claimant of a value, in position order, is its legitimate
	// owner. An application/SAM tag under TagUserBase lands in the reserved
	// notification range.
	owner := make(map[int64]*types.Const, len(tags))
	for _, c := range tags {
		v := val[c]
		if first, dup := owner[v]; dup {
			pass.Reportf(c.Pos(), "message tag %s = %d duplicates %s.%s (tags must be unique across the module)",
				c.Name(), v, first.Pkg().Name(), first.Name())
		} else {
			owner[v] = c
		}
		if haveBase && v < base && c.Name() != "TagTaskExit" {
			pass.Reportf(c.Pos(), "message tag %s = %d is below TagUserBase (%d); only the reserved TagTaskExit may live there",
				c.Name(), v, base)
		}
	}

	registered := make(map[int64]bool, len(owner))
	for v := range owner {
		registered[v] = true
	}
	for _, u := range uses {
		switch {
		case registered[u.Tag]:
		case u.Tag != wildcardTag:
			pass.Reportf(u.Pos, "%s with unregistered tag value %d; declare a Tag* constant so the tag namespace stays collision-checked",
				u.Method, u.Tag)
		case u.Method == "Send" || u.Method == "SendParts":
			pass.Reportf(u.Pos, "%s with wildcard tag %d (AnyTag is receive-only)", u.Method, u.Tag)
		}
	}
	return registered
}

// wildcardTag is the pvm.AnyTag / netsim.AnyTag value, legal in receive
// positions only.
const wildcardTag = -1

func finish(pass *analysis.Pass) error {
	var uses []tagUse
	var sends []sendSite
	received := make(map[int64]bool)
	recvTypes := make(map[int64]map[string]bool)
	var f flowFact
	for _, pf := range pass.AllPackageFacts(&f) {
		flow := pf.Fact.(*flowFact)
		uses = append(uses, flow.Uses...)
		sends = append(sends, flow.Sends...)
		for _, r := range flow.Recvs {
			received[r.Tag] = true
			for _, t := range r.Types {
				if recvTypes[r.Tag] == nil {
					recvTypes[r.Tag] = make(map[string]bool)
				}
				recvTypes[r.Tag][derefName(t)] = true
			}
		}
	}

	registered := checkNamespace(pass, uses)

	sort.Slice(sends, func(i, j int) bool { return sends[i].Pos < sends[j].Pos })
	for _, s := range sends {
		if !registered[s.Tag] {
			continue // reported above; one finding per defect
		}
		if !received[s.Tag] {
			pass.Report(analysis.Diagnostic{
				Pos: s.Pos, Analyzer: pass.Analyzer.Name, Category: pass.Analyzer.Key(),
				Message: "tag " + s.TagName + " is sent here but no Recv, .Tag comparison, " +
					"or switch case anywhere in the module matches it; the message can never be consumed",
			})
			continue
		}
		want := recvTypes[s.Tag]
		if len(s.Packed) == 0 || len(want) == 0 {
			continue
		}
		ok := false
		for _, t := range s.Packed {
			if want[derefName(t)] {
				ok = true
				break
			}
		}
		if !ok {
			pass.Report(analysis.Diagnostic{
				Pos: s.Pos, Analyzer: pass.Analyzer.Name, Category: pass.Analyzer.Key(),
				Message: "payload packed as " + strings.Join(s.Packed, " or ") +
					" at this send of " + s.TagName + ", but its receivers assert " +
					strings.Join(sortedKeys(want), ", ") + "; the decode will fail and the message will be dropped",
			})
		}
	}
	return nil
}

// derefName compares type names pointer-insensitively: Pack(*T) round-
// trips to an assertable *T, and fixtures may spell either.
func derefName(t string) string { return strings.TrimLeft(t, "*") }

func sortedKeys[K cmp.Ordered](m map[K]bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
