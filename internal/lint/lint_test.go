package lint

import (
	"testing"
)

func TestDeterministic(t *testing.T) {
	for path, want := range map[string]bool{
		"samft/internal/sam":        true,
		"samft/internal/lint":       true,
		"samft/cmd/samrun":          false,
		"samft/examples/quickstart": false,
	} {
		if Deterministic(path) != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, Deterministic(path), want)
		}
	}
}

// TestModuleClean runs the full suite over the repository itself: the
// tree must stay samlint-clean. It is the suite's only driver, and CI runs
// it as its own step.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide load is slow; skipped with -short")
	}
	res, err := Run("../..")
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
