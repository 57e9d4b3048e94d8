//go:build race

package httpfetch

// raceEnabled reports whether this test binary was built with the race
// detector, under which slices.Grow's make-and-append costs an
// allocation more.
const raceEnabled = true
