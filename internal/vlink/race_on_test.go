//go:build race

package vlink

// raceEnabled reports whether this test binary was built with the race
// detector; the child run in virtual time is built the same way.
const raceEnabled = true
