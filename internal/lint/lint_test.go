package lint

import (
	"testing"
)

func TestPatternMatcher(t *testing.T) {
	match, err := patternMatcher("samft", []string{"./internal/sam", "./internal/lint/...", "cmd/samlint"})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{
		"samft/internal/sam":          true,
		"samft/internal/sam/sub":      false, // non-recursive pattern
		"samft/internal/lint":         true,
		"samft/internal/lint/detiter": true, // recursive pattern
		"samft/cmd/samlint":           true, // bare path
		"samft/internal/cluster":      false,
		"":                            false,
	} {
		if match(path) != want {
			t.Errorf("match(%q) = %v, want %v", path, match(path), want)
		}
	}

	all, err := patternMatcher("samft", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if !all("samft") || !all("samft/internal/sam") {
		t.Error("./... must match the module root and everything under it")
	}
}

func TestDeterministic(t *testing.T) {
	for path, want := range map[string]bool{
		"samft/internal/sam":        true,
		"samft/internal/lint":       true,
		"samft/cmd/samlint":         false,
		"samft/examples/quickstart": false,
	} {
		if Deterministic(path) != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, Deterministic(path), want)
		}
	}
}

// TestModuleClean runs the full suite over the repository itself: the
// tree must stay samlint-clean (the CI job enforces the same thing via
// cmd/samlint; this keeps `go test ./...` self-sufficient).
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide load is slow; skipped with -short")
	}
	res, err := Run(Options{Dir: "../..", Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for pkg, errs := range res.TypeErrors {
		for _, e := range errs {
			t.Errorf("%s: type error: %v", pkg, e)
		}
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", FormatDiagnostic(res.Fset, d))
	}
	// The tree is clean *because* its sanctioned violations carry allow
	// directives; if suppression ever silently stopped matching, the
	// diagnostics above would fire — and if the directives vanished, this
	// check keeps the suppression path itself exercised.
	if len(res.Suppressed) == 0 {
		t.Error("expected at least one suppressed diagnostic from the module's allow directives")
	}
	for _, s := range res.Suppressed {
		if s.Key == "" {
			t.Errorf("suppressed diagnostic without a directive key: %s", FormatDiagnostic(res.Fset, s.Diagnostic))
		}
	}
}
