package prefetcher

import (
	"testing"
	"unsafe"
)

// TestCounterFillsCacheLine pins the padding that keeps each per-shard
// counter on cache lines of its own: a field edit that shrinks counter
// lets neighbouring counters, bumped from different goroutines,
// false-share — slower, and invisible to every other test.
func TestCounterFillsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(counter{}); size%64 != 0 {
		t.Fatalf("counter is %d bytes, not a whole number of 64-byte cache lines: adjust its padding", size)
	}
}
