// Package linttest runs samlint analyzers over fixture trees, mirroring
// golang.org/x/tools/go/analysis/analysistest: fixture files mark the
// lines where findings are expected with trailing comments of the form
//
//	// want "substring or regexp"
//
// and the harness fails the test on any mismatch in either direction.
// Fixtures live under testdata/src/<pkg>/ next to the analyzer's test,
// and import each other by their src-relative paths.
package linttest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"samft/internal/lint"
	"samft/internal/lint/analysis"
	"samft/internal/lint/load"
)

// wantRe matches one or more quoted expectations in a // want comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRe extracts the individual quoted patterns.
var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads testdata/src (relative to the test's working directory) and
// applies the analyzer to every fixture package, comparing findings
// against the fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src")
	pkgs, fset, err := load.Load(load.Config{Dir: dir})
	if err != nil {
		t.Fatalf("loading fixtures in %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s", dir)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("fixture %s: type error: %v", p.Path, e)
		}
	}

	diags, err := lint.RunPackages(fset, pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s over the fixtures: %v", a.Name, err)
	}

	expects := collectWants(t, fset, pkgs)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !matchExpectation(expects, pos, d.Message) {
			t.Errorf("%s:%d: unexpected finding: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					quoted := quotedRe.FindAllStringSubmatch(m[1], -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					for _, q := range quoted {
						pat := strings.ReplaceAll(q[1], `\"`, `"`)
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return out
}

func matchExpectation(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == pos.Filename && e.line == pos.Line && e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}
