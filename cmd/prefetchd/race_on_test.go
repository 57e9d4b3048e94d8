//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector. The alloc gate skips under it: the race runtime drops a
// fraction of sync.Pool Puts by design, so pooled steady state is
// unreachable.
const raceEnabled = true
