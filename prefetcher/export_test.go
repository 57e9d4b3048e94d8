package prefetcher

import "testing"

// CheckRecords is checkRecords for the external test package — the only
// place prefetcher and bytestore can meet.
func CheckRecords(t testing.TB, e *Engine) { checkRecords(t, e) }

// QuiesceAndCheck is quiesceAndCheck for the external test package.
func QuiesceAndCheck(t testing.TB, e *Engine) { quiesceAndCheck(t, e) }

// RaceEnabled is raceEnabled for the external test package's alloc gates.
const RaceEnabled = raceEnabled
