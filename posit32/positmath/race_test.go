//go:build race

package positmath_test

// raceEnabled reports that this binary was built with the race
// detector, which makes sync.Pool drop items on purpose: the
// zero-allocation gate means nothing there.
const raceEnabled = true
