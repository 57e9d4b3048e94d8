package testutil

import (
	"runtime"
	"testing"
)

// AllocsInPhase runs warm, then phase, at GOMAXPROCS 1 as
// testing.AllocsPerRun does, and fails t unless phase made at most want
// heap allocations in all: runtime.MemStats.Mallocs across the whole
// phase, with no division by a run count. AllocsPerRun reports the
// integer mean, so an arm that allocates once in a few hundred calls
// reads 0 there; over a phase long enough to pass through it, here it
// reads 1. It returns the count.
func AllocsInPhase(t testing.TB, want uint64, what string, warm, phase func()) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	phase()
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	if got > want {
		t.Errorf("%s allocated %d times in all; want at most %d", what, got, want)
	}
	return got
}
