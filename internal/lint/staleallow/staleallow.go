// Package staleallow reports //samlint:allow directives that suppress
// nothing. A suppression is technical debt with an expiry date: the code
// it excused gets rewritten, the analyzer gets smarter, and the comment
// lingers, silently ready to hide the next real finding on its line.
// This pass closes the loop — the driver marks each directive key that
// matched a diagnostic, and whatever remains unmarked after the whole
// suite has run is reported here, including keys that were never valid
// for any analyzer in the first place (typos).
//
// staleallow must be the last analyzer in the suite: it reads the usage
// state every earlier analyzer produced.
package staleallow

import (
	"samft/internal/lint/analysis"
)

// Analyzer is the staleallow check.
var Analyzer = &analysis.Analyzer{
	Name:          "staleallow",
	ModuleScope:   true,
	NeverSuppress: true,
	Run:           run,
}

func run(pass *analysis.Pass) error {
	if pass.Allows == nil {
		return nil
	}
	for _, u := range pass.Allows.Unused() {
		if u.Known {
			pass.Reportf(u.Pos,
				"//samlint:allow %s suppresses nothing; remove the stale directive", u.Key)
		} else {
			pass.Reportf(u.Pos,
				"//samlint:allow %s names no analyzer or category in the suite (typo?)", u.Key)
		}
	}
	return nil
}
