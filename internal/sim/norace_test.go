//go:build !race

package sim_test

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
