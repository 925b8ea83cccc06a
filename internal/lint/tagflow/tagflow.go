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
//     come from codec.Pack or codec.AppendPack (possibly through a helper
//     like sam.encodeHead) and the receive side type-asserts the result of
//     codec.Unpack or decodes with codec.UnpackInto — the packed type must
//     be among the types the receivers of that tag assert or decode into.
//     Packing *wire and asserting *otherThing is a guaranteed decode-drop.
//
// The dataflow checks are interprocedural and module-wide: one pass walks
// every package in dependency order, keeping per-function pack/unpack
// provenance ("returns bytes packed from T" / "asserts unpacked values to
// T") in maps keyed by the function object, and collecting every send site
// and every piece of receive evidence before correlating them. Raw []byte
// payloads (netsim frames, benchmarks) have no provenance and are exempt
// from the type check; dynamic (non-constant) tags are exempt from both.
// Receive evidence is associated with payload types at function
// granularity: a dispatcher that compares m.Tag against a constant and
// asserts unpacked values is taken to receive those types for that tag.
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

// Analyzer is the tagflow check (module-scope: a pack helper in one
// package can feed a send in another, and the receivers of a tag may live
// anywhere).
var Analyzer = &analysis.Analyzer{
	Name:        "tagflow",
	ModuleScope: true,
	Run:         run,
}

const codecPath = "samft/internal/codec"

// sendSite is one Send call with a constant tag.
type sendSite struct {
	Pos     token.Pos
	Tag     int64
	TagName string
	Packed  []string // payload provenance; empty = raw bytes, unchecked
}

// tagUse is one messaging call with a constant tag, wildcard included.
type tagUse struct {
	Pos    token.Pos
	Method string
	Tag    int64
}

// flow is the module's constant-tag call sites, and of those its sends
// and receive evidence.
type flow struct {
	uses  []tagUse
	sends []sendSite
	// received holds each tag with receive evidence (a Recv, a .Tag
	// comparison or a switch case), mapped to the payload types the
	// evidencing functions assert, pointer-insensitively.
	received map[int64]map[string]bool
}

// tagMethods maps messaging method names to their tag argument index:
// Send(dst, tag, payload), SendParts(dst, tag, payload, body),
// Recv/Take/TryRecv/Probe(src, tag).
var tagMethods = map[string]int{"Send": 1, "SendParts": 1, "Recv": 1, "Take": 1, "TryRecv": 1, "Probe": 1}

func run(pass *analysis.Pass) error {
	c := &checker{
		decls:   make(map[*types.Func]funcDecl),
		packs:   make(map[*types.Func][]string),
		unpacks: make(map[*types.Func][]string),
	}
	var order []*types.Func
	for _, p := range pass.All {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						c.decls[fn] = funcDecl{fd, p.Info}
						order = append(order, fn)
					}
				}
			}
		}
	}
	fl := flow{received: make(map[int64]map[string]bool)}
	for _, fn := range order {
		c.collectFlow(fn, &fl)
	}
	fl.report(pass)
	return nil
}

// funcDecl is one function body with its own package's type information.
type funcDecl struct {
	decl *ast.FuncDecl
	info *types.Info
}

type checker struct {
	decls   map[*types.Func]funcDecl
	packs   map[*types.Func][]string
	unpacks map[*types.Func][]string
}

// codecCall reports whether call invokes codec.<name>.
func codecCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	// Match the real module path, or any package simply named "codec" so
	// fixture trees (whose import paths are src-relative) exercise the
	// same provenance logic.
	return fn.Pkg().Path() == codecPath || fn.Pkg().Name() == "codec"
}

// packedArg returns the value call packs when it is codec.Pack(v) or
// codec.AppendPack(dst, v), and nil otherwise.
func packedArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	switch {
	case codecCall(info, call, "Pack") && len(call.Args) == 1:
		return call.Args[0]
	case codecCall(info, call, "AppendPack") && len(call.Args) == 2:
		return call.Args[1]
	}
	return nil
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

func typeString(t types.Type) string {
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
	d, ok := c.decls[fn]
	if !ok || visiting[fn] {
		return nil
	}
	info := d.info
	if visiting == nil {
		visiting = make(map[*types.Func]bool)
	}
	visiting[fn] = true
	set := make(map[string]bool)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v := packedArg(info, call); v != nil {
			if ts := typeString(info.Types[v].Type); ts != "" {
				set[ts] = true
			}
			return true
		}
		if callee := calleeFunc(info, call); callee != nil {
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
	d, ok := c.decls[fn]
	if !ok || visiting[fn] {
		return nil
	}
	info := d.info
	if visiting == nil {
		visiting = make(map[*types.Func]bool)
	}
	visiting[fn] = true
	set := make(map[string]bool)

	// Pass 1: which local vars hold codec.Unpack results.
	unpacked := make(map[types.Object]bool)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !codecCall(info, call, "Unpack") {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				unpacked[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				unpacked[obj] = true
			}
		}
		return true
	})
	// Pass 2: assertions on those vars, plus callee delegation.
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || !unpacked[info.Uses[id]] {
				return true
			}
			if n.Type != nil { // v.(T); v.(type) handled via TypeSwitch cases below
				if ts := typeString(info.Types[n.Type].Type); ts != "" {
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
			if !ok || !unpacked[info.Uses[id]] {
				return true
			}
			for _, stmt := range n.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, te := range cc.List {
					if ts := typeString(info.Types[te].Type); ts != "" {
						set[ts] = true
					}
				}
			}
		case *ast.CallExpr:
			if codecCall(info, n, "UnpackInto") && len(n.Args) == 2 {
				// Decoding into a destination receives its type.
				if ts := typeString(info.Types[n.Args[1]].Type); ts != "" {
					set[ts] = true
				}
				return true
			}
			if callee := calleeFunc(info, n); callee != nil {
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
func (c *checker) collectFlow(fn *types.Func, fl *flow) {
	d := c.decls[fn]
	info := d.info

	// Local payload provenance: var -> packed types, from single-call
	// assignments (b := p.encodeHead(w, r); b, err := codec.Pack(x)).
	prov := make(map[types.Object][]string)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		var packed []string
		if v := packedArg(info, call); v != nil {
			if ts := typeString(info.Types[v].Type); ts != "" {
				packed = []string{ts}
			}
		} else if callee := calleeFunc(info, call); callee != nil {
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

	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
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
			fl.uses = append(fl.uses, tagUse{Pos: n.Args[idx].Pos(), Method: sel.Sel.Name, Tag: v})
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
					if v := packedArg(info, payload); v != nil {
						if ts := typeString(info.Types[v].Type); ts != "" {
							site.Packed = []string{ts}
						}
					} else if callee := calleeFunc(info, payload); callee != nil {
						site.Packed = c.packsOf(callee, nil)
					}
				}
			}
			fl.sends = append(fl.sends, site)
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
	for v := range evidence {
		want := fl.received[v]
		if want == nil {
			want = make(map[string]bool)
			fl.received[v] = want
		}
		for _, t := range asserted {
			want[derefName(t)] = true
		}
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

// report correlates the module's sends with its receive evidence.
func (fl *flow) report(pass *analysis.Pass) {
	registered := checkNamespace(pass, fl.uses)

	for _, s := range fl.sends {
		if !registered[s.Tag] {
			continue // reported above; one finding per defect
		}
		want, received := fl.received[s.Tag]
		if !received {
			pass.Reportf(s.Pos, "tag %s is sent here but no Recv, .Tag comparison, "+
				"or switch case anywhere in the module matches it; the message can never be consumed", s.TagName)
			continue
		}
		if len(s.Packed) == 0 || len(want) == 0 {
			continue
		}
		if !slices.ContainsFunc(s.Packed, func(t string) bool { return want[derefName(t)] }) {
			pass.Reportf(s.Pos, "payload packed as %s at this send of %s, but its receivers assert %s; "+
				"the decode will fail and the message will be dropped",
				strings.Join(s.Packed, " or "), s.TagName, strings.Join(sortedKeys(want), ", "))
		}
	}
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
