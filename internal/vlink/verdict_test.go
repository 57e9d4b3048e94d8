package vlink

import (
	"testing"
	"time"

	"repro/prefetcher"
)

// The pieces here use no clock, so they build in an ordinary go test
// run as well as in the child run in virtual time, and are checked in
// both: what a run reports, the rule that decides a knob from two
// runs, and when a faulty link fails.

// result is one run's measurement, its fields named as sim.SystemResult
// names them.
type result struct {
	// AccessTime is t̄ in seconds over the measured requests (a hit costs
	// 0), AccessTimeCI its CI95 half-width by batch means.
	AccessTime, AccessTimeCI float64
	// HitRatio, NFObserved (prefetches issued per request), and the
	// link's busy fraction — all traffic, and demand alone (ρ′) — over
	// the measured window.
	HitRatio, NFObserved, Utilisation, DemandUtilisation float64
	// HPrimeEstimate is the controller's ĥ′ at the end of the run, over
	// every request. RhoPrimeEstimate (the controller's ρ̂′, Stats.RhoPrime)
	// and LinkRhoPrime (the link's, Stats.Backends[0].RhoPrime) are means
	// of readings taken every 64th measured arrival: each is a 10 s
	// window.
	HPrimeEstimate, RhoPrimeEstimate, LinkRhoPrime float64
	// Requests and Duration are the measured window's.
	Requests int64
	Duration float64
	// P99 is the 99th percentile of the measured access times.
	P99 float64
	// Final is the engine's Stats once quiesced. FailedAll counts the
	// Gets that returned an error, Failed those of them measured.
	Final             prefetcher.Stats
	FailedAll, Failed int64
}

// better reports whether a is the better of two runs: fewer failed Gets,
// then lower t̄.
func better(a, b result) bool {
	if a.Failed != b.Failed {
		return a.Failed < b.Failed
	}
	return a.AccessTime < b.AccessTime
}

// wins names the way the best run with a knob setting beats the best run
// without it, or returns "" if it does not: fewer failed Gets; with as
// many, t̄ lower by more than the two CI95 half-widths together, or p99
// at least 10 % lower with t̄ no worse than those half-widths allow.
func wins(with, without result) string {
	ci := with.AccessTimeCI + without.AccessTimeCI
	switch {
	case with.Failed != without.Failed:
		if with.Failed < without.Failed {
			return "fewer failed Gets"
		}
	case with.AccessTime < without.AccessTime-ci:
		return "t̄"
	case with.P99 <= 0.9*without.P99 && with.AccessTime <= without.AccessTime+ci:
		return "p99"
	}
	return ""
}

// What a fault does to one call.
const (
	pass = iota
	fail // at once
	hang // until the call's context is done
)

// fault is a link's deterministic failure mode; the zero fault never
// fails. Calls are numbered from 1 in arrival order, and a spell is
// placed by the call's offset from the link's start.
type fault struct {
	every int           // every every-th call fails
	dark  bool          // calls hang during the last 10 s of every 60 s
	burst time.Duration // calls fail during the first burst of every second
}

func (f fault) at(call int64, since time.Duration) int {
	switch {
	case f.every > 0 && call%int64(f.every) == 0:
		return fail
	case f.dark && since%time.Minute >= 50*time.Second:
		return hang
	case f.burst > 0 && since%time.Second < f.burst:
		return fail
	}
	return pass
}

// TestWinRule holds the rule every decision test keeps or deletes a knob
// by to its three ways of winning and to their edges. The runs are
// 20 ms ± 1 ms without the knob, p99 100 ms.
func TestWinRule(t *testing.T) {
	without := result{AccessTime: 0.020, AccessTimeCI: 0.001, P99: 0.100}
	with := func(tbar, p99 float64, failed int64) result {
		return result{AccessTime: tbar, AccessTimeCI: 0.001, P99: p99, Failed: failed}
	}
	for _, tc := range []struct {
		name          string
		with, without result
		want          string
	}{
		{"fewer failed Gets at any t̄", with(0.050, 0.300, 0), result{AccessTime: 0.020, Failed: 5}, "fewer failed Gets"},
		{"more failed Gets at a lower t̄", with(0.010, 0.050, 5), without, ""},
		{"t̄ lower by more than both half-widths", with(0.0179, 0.100, 0), without, "t̄"},
		{"t̄ lower within both half-widths", with(0.0185, 0.100, 0), without, ""},
		{"p99 10 % lower, t̄ within the half-widths", with(0.0215, 0.090, 0), without, "p99"},
		{"p99 9 % lower", with(0.020, 0.091, 0), without, ""},
		{"p99 lower, t̄ worse beyond the half-widths", with(0.0225, 0.050, 0), without, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := wins(tc.with, tc.without); got != tc.want {
				t.Errorf("wins = %q, want %q", got, tc.want)
			}
			// The best cell of a side is picked by better, which must
			// rank failed Gets before t̄ as wins does.
			if tc.want == "fewer failed Gets" && !better(tc.with, tc.without) {
				t.Error("better ranks the run with fewer failed Gets below the other")
			}
		})
	}
}

// TestFaultSchedule pins each fault mode to the calls and instants it
// fails: the decision tests' fault rows are deterministic because these
// are.
func TestFaultSchedule(t *testing.T) {
	type at struct {
		call  int64
		since time.Duration
		want  int
	}
	for _, tc := range []struct {
		name  string
		fault fault
		at    []at
	}{
		{"none", fault{}, []at{{1, 0, pass}, {20, 55 * time.Second, pass}, {1000, 20 * time.Millisecond, pass}}},
		{"every call", fault{every: 1}, []at{{1, 0, fail}, {2, 55 * time.Second, fail}}},
		{"every 20th", fault{every: 20}, []at{{19, 0, pass}, {20, 0, fail}, {21, 0, pass}, {40, 55 * time.Second, fail}}},
		{"dark spell", fault{dark: true}, []at{
			{1, 49*time.Second + 999*time.Millisecond, pass}, {2, 50 * time.Second, hang},
			{3, 59*time.Second + 999*time.Millisecond, hang}, {4, time.Minute, pass}, {5, 110 * time.Second, hang},
		}},
		{"burst", fault{burst: 50 * time.Millisecond}, []at{
			{1, 0, fail}, {2, 49 * time.Millisecond, fail}, {3, 50 * time.Millisecond, pass},
			{4, time.Second, fail}, {5, time.Second + 50*time.Millisecond, pass},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, a := range tc.at {
				if got := tc.fault.at(a.call, a.since); got != a.want {
					t.Errorf("call %d at %v: %d, want %d (pass %d, fail %d, hang %d)", a.call, a.since, got, a.want, pass, fail, hang)
				}
			}
		})
	}
}
