//go:build race

package sim_test

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a random quarter of what is put into it: no run can count on
// taking back a warm machine.
const raceEnabled = true
