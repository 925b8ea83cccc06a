package experiments

import "time"

// ExpireRunTimeout makes every Run time out at once until the returned
// function restores the real bound: a stand-in for a hung run, for the tests
// here and in experiments_test (which also drives scenario.RunSet).
func ExpireRunTimeout() (restore func()) {
	prev := runTimeout
	runTimeout = time.Microsecond
	return func() { runTimeout = prev }
}
