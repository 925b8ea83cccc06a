package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"samft/internal/lint/analysis"
	"samft/internal/lint/detiter"
	"samft/internal/lint/load"
	"samft/internal/lint/nowallclock"
)

// Analyzers returns the full samlint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nowallclock.Analyzer,
		detiter.Analyzer,
	}
}

// deterministicPrefix marks the packages whose behavior must be a pure
// function of the simulation inputs: everything under internal/ — the
// simulator layers (netsim, pvm, sam, ft, jade, trace, codec, ckpt), the
// harness (cluster, experiments), and the applications. cmd/ and
// examples/quickstart are host-side front ends and may read the wall clock.
const deterministicPrefix = "samft/internal/"

// Deterministic reports whether the package at path must obey the
// wall-clock ban (see the nowallclock analyzer).
func Deterministic(path string) bool {
	return strings.HasPrefix(path, deterministicPrefix)
}

// Result is the outcome of one Run.
type Result struct {
	Diagnostics []analysis.Diagnostic
	Fset        *token.FileSet
	// TypeErrors holds type-checker errors per package path. A tree that
	// `go build` accepts produces none; when present, diagnostics may be
	// incomplete.
	TypeErrors map[string][]error
}

// Run loads the module containing dir and applies the analyzer suite to
// every package in it. The module is parsed and type-checked exactly once,
// and every analyzer shares that one load.
func Run(dir string) (*Result, error) {
	modPath, modRoot, err := load.ModulePathOf(dir)
	if err != nil {
		return nil, err
	}
	pkgs, fset, err := load.Load(load.Config{Dir: modRoot, ModulePath: modPath})
	if err != nil {
		return nil, err
	}
	res := &Result{Fset: fset, TypeErrors: make(map[string][]error)}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			res.TypeErrors[p.Path] = p.TypeErrors
		}
	}
	if res.Diagnostics, err = RunPackages(fset, pkgs, Analyzers()); err != nil {
		return nil, err
	}
	return res, nil
}

// RunPackages applies analyzers to already-loaded packages, one package
// at a time, and returns their findings sorted by position. linttest uses
// it to drive fixtures exactly the way Run drives the module.
func RunPackages(fset *token.FileSet, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, p := range pkgs {
			// The wall-clock ban only binds the deterministic simulation
			// layers; host-side packages (cmd/, examples/quickstart — anything with a
			// module-qualified path outside internal/) are exempt. Fixture
			// packages load with bare src-relative paths and are always
			// checked, so analyzer tests see their findings.
			if a == nowallclock.Analyzer && strings.Contains(p.Path, "/") && !Deterministic(p.Path) {
				continue
			}
			if err := a.Run(&analysis.Pass{Analyzer: a, Fset: fset, Pkg: p, Report: report}); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, p.Path, err)
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// FormatDiagnostic renders one finding in the standard file:line:col
// style used by go vet.
func FormatDiagnostic(fset *token.FileSet, d analysis.Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
}
