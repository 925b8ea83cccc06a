// Package nowallclock rejects wall-clock and ambient-randomness reads in
// deterministic packages. The simulation's guarantees — reproducible
// experiments, bit-identical answers across chaos schedules, replayable
// recovery — hold only if every layer derives behavior from modeled time
// (netsim virtual clocks) and seeded xrand generators, never from the
// host's clock or math/rand's global source. There is no escape: a
// package that must read the wall clock lives outside internal/.
package nowallclock

import (
	"go/ast"
	"go/types"

	"samft/internal/lint/analysis"
)

// Analyzer is the nowallclock check.
var Analyzer = &analysis.Analyzer{
	Name: "nowallclock",
	Run:  run,
}

// bannedTime lists the time-package functions that read or wait on the
// host clock. After and AfterFunc are banned too: each schedules a
// wall-clock deadline the simulation cannot replay (and After leaks its
// timer until it fires). The explicit constructors NewTimer and
// NewTicker stay legal — harness code needs real, stoppable timeouts,
// and a constructed timer never leaks a timestamp into simulation state.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Pkg.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"wall-clock time.%s in deterministic package (use modeled time)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Any package-level function: the global source (Intn,
				// Float64, ...) is seeded from the wall clock, and even
				// rand.New bypasses the repo's splittable xrand discipline.
				if fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(sel.Pos(),
						"math/rand.%s in deterministic package (use the seeded internal/xrand)",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
