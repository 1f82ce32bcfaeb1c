//go:build !race

package partition_test

// raceEnabled reports whether the test binary runs under -race.
const raceEnabled = false
