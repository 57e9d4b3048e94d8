// Package offheap hands out pointer-free memory that lives outside the
// Go heap, the way fastcache allocates its chunks: on unix each Alloc is
// one anonymous mmap. The collector neither scans that memory nor counts
// it toward its heap goal, so a large table kept there costs its own size
// in RSS and not, at GOGC=100, up to as much again in garbage the
// collector lets accumulate before it runs.
//
// The memory must never hold a Go pointer: the collector does not see
// it, so a pointer stored there keeps nothing alive. Every slice Alloc
// returns is given back to Free exactly once, whole, and not touched
// after that.
//
// Under the race detector, and where there is no mmap, Alloc falls back
// to make: the race detector watches only memory inside Go's own arenas,
// and the code that runs on this memory should stay under its eye in
// -race tests. Mapped counts the bytes either way.
package offheap

import "sync/atomic"

var mapped atomic.Int64

// Mapped returns the bytes Alloc has handed out that Free has not taken
// back, process-wide.
func Mapped() int64 { return mapped.Load() }

// Alloc returns n > 0 zeroed bytes. A refused mapping panics, as the
// runtime throws when the heap cannot grow.
func Alloc(n int) []byte {
	b := alloc(n)
	mapped.Add(int64(len(b)))
	return b
}

// Free gives back a slice Alloc returned.
func Free(b []byte) {
	mapped.Add(-int64(len(b)))
	free(b)
}
