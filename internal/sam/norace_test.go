//go:build !race

package sam

const raceEnabled = false
