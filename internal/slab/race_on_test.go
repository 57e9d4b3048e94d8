//go:build race

package slab

// raceEnabled reports whether this test binary was built with the race
// detector. The heap-growth gates skip under it: there internal/offheap
// hands out heap slices, so the race detector can see the accesses.
const raceEnabled = true
