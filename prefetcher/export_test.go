package prefetcher

import "testing"

// CheckRecords is checkRecords for the external test package — the only
// place prefetcher and bytestore can meet.
func CheckRecords(t testing.TB, e *Engine) { checkRecords(t, e) }
