package testutil

import (
	"runtime"
	"testing"
	"time"
)

// RunFinalizers runs the collector and returns once every finalizer that
// collection queued has returned. Finalizers run one at a time on a
// single goroutine, a queued batch to its end before the next; so a
// sentinel's finalizer shows that its own batch has started, and a
// second round's sentinel that the first batch has finished.
func RunFinalizers(tb testing.TB) {
	tb.Helper()
	for round := 0; round < 2; round++ {
		done := sentinel()
		runtime.GC()
		select {
		case <-done:
		case <-time.After(defaultSettle):
			tb.Fatalf("a finalizer queued by runtime.GC did not run within %v", defaultSettle)
		}
	}
}

// sentinel drops an object whose finalizer closes the returned channel.
// Its pointer field keeps it off the tiny allocator, whose blocks may
// never be finalized.
func sentinel() <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(&struct{ _ *int }{}, func(*struct{ _ *int }) { close(done) })
	return done
}
