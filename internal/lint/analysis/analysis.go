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
	// Run executes the check on one package, reporting findings through
	// the Pass.
	Run func(*Pass) error
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
	// Pkg is the package under analysis.
	Pkg *Package
	// Report receives each finding. The driver supplies it.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}
