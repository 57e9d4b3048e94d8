// Package vlink runs the prefetch engine in virtual time, on a
// processor-sharing link with a capacity, and measures the paper's
// metric there: the mean access time t̄ of demand requests.
//
// Everything else in the package is test code. The tests in virtual
// time are built only with GOEXPERIMENT=synctest, whose testing/synctest
// bubble gives them a fake clock that advances only when every goroutine
// in it is blocked; an ordinary go test run re-runs them in a child go
// test with that experiment on. The clock-free pieces they share (the
// rule a knob is decided by, the faulty links' schedule) are checked in
// both runs. The engine is driven through its public API alone
// (prefetcher and prefetcher/fetch), with no hook into its internals.
package vlink
