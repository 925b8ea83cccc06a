//go:build race

package sam

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops the codec's pooled encoders at random, so
// allocation counts are not stable.
const raceEnabled = true
