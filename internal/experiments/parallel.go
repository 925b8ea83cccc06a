package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// The experiment grids (figures, ablations) are embarrassingly parallel:
// every cell is an independent in-process simulated cluster with its own
// PVM machine, virtual clocks, and statistics. RunAll executes a batch of
// cells under a worker pool of GOMAXPROCS, one cluster per scheduler
// thread, while keeping results in spec order, so callers that format
// tables produce the same layout whatever the pool size.

// RunError is one cell of a RunAll batch that errored out: its application
// failed, or it was still running at the run timeout (hung).
type RunError struct {
	Index int // the cell's index in RunAll's specs
	Spec  Spec
	Err   error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("%v n=%d policy=%v kills=[%s] chaos-seed=%d: %v",
		e.Spec.App, e.Spec.N, e.Spec.Policy, FormatKills(e.Spec.Kills), e.Spec.ChaosSeed, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// RunAll executes every spec and returns the results in spec order. Cells
// run concurrently up to GOMAXPROCS; each failure is a *RunError, and the
// first (by spec order) is returned after all cells finish.
func RunAll(specs []Spec) ([]Result, error) {
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := Run(specs[i])
			if err != nil {
				errs[i] = &RunError{Index: i, Spec: specs[i], Err: err}
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
