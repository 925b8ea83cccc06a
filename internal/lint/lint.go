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
	"samft/internal/lint/staleallow"
	"samft/internal/lint/tagflow"
)

// Analyzers returns the full samlint suite. staleallow must run last: it
// reports the //samlint:allow directives that no earlier analyzer's
// diagnostic consumed.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nowallclock.Analyzer,
		detiter.Analyzer,
		tagflow.Analyzer,
		staleallow.Analyzer,
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

// SuppressedDiagnostic records a finding that a //samlint:allow
// directive silenced, and the key that matched.
type SuppressedDiagnostic struct {
	Diagnostic analysis.Diagnostic
	Key        string
}

// Result is the outcome of one Run.
type Result struct {
	Diagnostics []analysis.Diagnostic
	// Suppressed lists the findings //samlint:allow directives silenced.
	Suppressed []SuppressedDiagnostic
	Fset       *token.FileSet
	// TypeErrors holds type-checker errors per package path. A tree that
	// `go build` accepts produces none; when present, diagnostics may be
	// incomplete.
	TypeErrors map[string][]error
}

// Run loads the module containing dir and applies the analyzer suite to
// every package in it. The module is parsed and type-checked exactly once;
// every analyzer — including the module-scope ones — shares that one load.
// Diagnostics suppressed by //samlint:allow directives are recorded in
// Result.Suppressed; the rest are returned sorted by position.
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
	if err := runSuite(res, fset, pkgs, Analyzers()); err != nil {
		return nil, err
	}
	return res, nil
}

// RunPackages applies analyzers to already-loaded packages, honoring
// //samlint:allow suppression. linttest uses it to drive fixtures exactly
// the way the real driver drives the module.
func RunPackages(fset *token.FileSet, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	res := &Result{Fset: fset}
	if err := runSuite(res, fset, pkgs, analyzers); err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// runSuite is the shared driver core: one allow index for the whole run,
// packages in dependency order (load.Load returns them topologically
// sorted), suppression applied at report time so directive usage is
// observable by the staleallow analyzer.
func runSuite(res *Result, fset *token.FileSet, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) error {
	allows := analysis.CollectAllows(fset, pkgs)
	for _, a := range analyzers {
		allows.Keys[a.Name] = true
		allows.Keys[a.Key()] = true
	}

	neverSuppress := make(map[string]bool)
	for _, a := range analyzers {
		if a.NeverSuppress {
			neverSuppress[a.Name] = true
		}
	}
	report := func(d analysis.Diagnostic) {
		if !neverSuppress[d.Analyzer] {
			pos := fset.Position(d.Pos)
			if key, ok := allows.Suppressed(pos, d.Category, d.Analyzer); ok {
				res.Suppressed = append(res.Suppressed, SuppressedDiagnostic{Diagnostic: d, Key: key})
				return
			}
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}

	newPass := func(a *analysis.Analyzer, pkg *analysis.Package) *analysis.Pass {
		return &analysis.Pass{
			Analyzer: a, Fset: fset, Pkg: pkg, All: pkgs,
			Allows: allows, Report: report,
		}
	}

	for _, a := range analyzers {
		if a.ModuleScope {
			if err := a.Run(newPass(a, nil)); err != nil {
				return fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, p := range pkgs {
			// The wall-clock ban only binds the deterministic simulation
			// layers; host-side packages (cmd/, examples/quickstart — anything with a
			// module-qualified path outside internal/) are exempt. Fixture
			// packages load with bare src-relative paths and are always
			// checked, so analyzer tests see their findings.
			if a == nowallclock.Analyzer && strings.Contains(p.Path, "/") && !Deterministic(p.Path) {
				continue
			}
			if err := a.Run(newPass(a, p)); err != nil {
				return fmt.Errorf("%s: %s: %w", a.Name, p.Path, err)
			}
		}
	}

	sort.Slice(res.Diagnostics, func(i, j int) bool {
		pi, pj := fset.Position(res.Diagnostics[i].Pos), fset.Position(res.Diagnostics[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return res.Diagnostics[i].Analyzer < res.Diagnostics[j].Analyzer
	})
	return nil
}

// FormatDiagnostic renders one finding in the standard file:line:col
// style used by go vet.
func FormatDiagnostic(fset *token.FileSet, d analysis.Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
}
