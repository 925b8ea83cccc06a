// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that samlint's checkers need.
// The container this repository builds in has no module proxy access, so
// the real x/tools analysis framework cannot be vendored; this package
// mirrors its Analyzer/Pass/Diagnostic shape on top of the standard
// library's go/ast and go/types so the checkers read like ordinary
// go/analysis code and could be ported to a vet-tool with only driver
// changes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test output.
	Name string
	// Category is the //samlint:allow suppression key. Empty means the
	// analyzer's Name is the key.
	Category string
	// ModuleScope marks analyses that need a whole-module view (for
	// example cross-package tag uniqueness, or a pack helper in one
	// package feeding a send in another). The driver runs them once with
	// Pass.Pkg == nil instead of once per package; they walk Pass.All.
	ModuleScope bool
	// Run executes the check, reporting findings through the Pass.
	Run func(*Pass) error
	// NeverSuppress exempts the analyzer's diagnostics from
	// //samlint:allow filtering. staleallow sets it: a stale directive
	// must not be able to hide the report about itself (an unused
	// "allow all" would otherwise be unreportable).
	NeverSuppress bool
}

// Key returns the suppression key for the analyzer's diagnostics.
func (a *Analyzer) Key() string {
	if a.Category != "" {
		return a.Category
	}
	return a.Name
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding the package's files.
	Dir string
	// Name is the package name (from the package clause).
	Name string
	// Files are the parsed source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's recorded facts for Files.
	Info *types.Info
	// TypeErrors are any errors the type checker reported; a well-formed
	// tree (one that `go build` accepts) has none.
	TypeErrors []error
}

// Pass carries one analyzer execution's inputs and its report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis. It is nil for ModuleScope
	// analyzers, which inspect All instead.
	Pkg *Package
	// All lists every loaded package in dependency order, so module-scope
	// analyses can correlate declarations across packages.
	All []*Package

	// Allows is the module's //samlint:allow index. The driver consults it
	// when a diagnostic is reported, marking each directive that matched;
	// staleallow reads what is left unmarked.
	Allows *Allows

	// Report receives each finding. The driver supplies it.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	// Category is the suppression key (see //samlint:allow).
	Category string
	Message  string
}

// Reportf reports a finding at pos with the analyzer's default category.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Category: p.Analyzer.Key(),
		Message:  fmt.Sprintf(format, args...),
	})
}
