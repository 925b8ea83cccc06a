//go:build race

package codec

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops pooled encoders at random, so allocation counts
// are not stable.
const raceEnabled = true
