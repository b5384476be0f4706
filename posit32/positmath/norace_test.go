//go:build !race

package positmath_test

const raceEnabled = false
