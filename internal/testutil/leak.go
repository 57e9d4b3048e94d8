// Package testutil holds shared test helpers. Its first resident is the
// goroutine-leak check: it proves that every goroutine a test's code
// spawned is gone when the test ends — that Close really reaps the
// workers and hedgers it promises to, and that a fan-out returns only
// after its last goroutine has.
package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// defaultSettle bounds how long a leak check waits for goroutines to
// return to baseline before declaring a leak. Shutdown is asynchronous
// (Close returns before the last worker's final return instruction), so
// the check polls rather than asserting instantaneously.
const defaultSettle = 5 * time.Second

// A Snapshot records the interesting goroutine population at a point in
// time: runtime housekeeping (GC workers, sweepers, timer callbacks)
// and the testing framework's own goroutines are filtered out, so the
// baseline is exact and Check needs no slack.
type Snapshot struct {
	n int
}

// SnapshotGoroutines captures the current filtered goroutine count as
// the baseline a later Check compares against.
func SnapshotGoroutines() Snapshot {
	n, _ := countGoroutines()
	return Snapshot{n: n}
}

// Check asserts the goroutine count has returned to (or under) the
// snapshot's baseline, polling until the timeout. On failure it reports
// the counts and the surviving stacks, which name every leaked
// goroutine and the select it is parked in.
func (s Snapshot) Check(tb testing.TB, timeout time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n, stacks := countGoroutines()
		if n <= s.n {
			return
		}
		if time.Now().After(deadline) {
			tb.Errorf("goroutine leak: %d at baseline, %d after %v settle; surviving stacks:\n%s",
				s.n, n, timeout, strings.Join(stacks, "\n"))
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ExpectNoLeaks snapshots the goroutine count now and registers a
// cleanup asserting the count is back to baseline when the test ends —
// after every cleanup registered later, so a t.Cleanup(Close) is
// observed. Call it first thing in a lifecycle test, before the engine
// or fabric under test is constructed.
func ExpectNoLeaks(tb testing.TB) {
	tb.Helper()
	s := SnapshotGoroutines()
	tb.Cleanup(func() {
		s.Check(tb, defaultSettle)
	})
}

// ignoredStacks marks goroutines that are not the code under test:
// runtime housekeeping, the testing framework, and fired timer
// callbacks in flight. A leak check counting these would need slack,
// and slack hides exactly the single-goroutine leaks it exists to find.
var ignoredStacks = []string{
	"runtime.gcBgMarkWorker",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.runfinq",
	"runtime.ReadTrace",
	"testing.(*T).Run",
	"testing.(*M).",
	"testing.runFuzzing",
	"testing.tRunner",
	"time.goFunc",
	"os/signal.signal_recv",
	"os/signal.loop",
}

// countGoroutines parses a full stack dump and counts the goroutines
// that belong to the code under test, returning their stacks too.
func countGoroutines() (int, []string) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var stacks []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		ignore := false
		for _, pat := range ignoredStacks {
			if strings.Contains(g, pat) {
				ignore = true
				break
			}
		}
		if !ignore {
			stacks = append(stacks, g)
		}
	}
	return len(stacks), stacks
}
