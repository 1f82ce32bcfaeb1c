//go:build race

package linalg

// raceEnabled reports whether the test binary runs under -race.
const raceEnabled = true
