//go:build goexperiment.synctest

package vlink

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/prefetcher"
	"repro/prefetcher/fetch"
)

// The fetch fabric's knobs are decided here: a setting stays only if it
// wins somewhere. A row is one configuration of links
// and load; its cells are the settings timed on it. On each row the best
// cell that uses the knob is set against the best cell that does not,
// "best" meaning fewest failed Gets, then lowest t̄.

// A row is one configuration of links, source and load.
type row struct {
	name string
	run  run
}

// A cell is one setting timed on every row; uses marks the cells that
// set the knob under decision.
type cell struct {
	name string
	uses bool
	set  func(*run)
}

// table times every cell on every row and returns every run's result,
// by row and cell, each held to checkBooks. The runs go GOMAXPROCS at a
// time, each in a bubble of its own.
func table(t *testing.T, rows []row, cells []cell) [][]result {
	t.Helper()
	type timed struct {
		res result
		err error
	}
	out := make([][]timed, len(rows))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, rw := range rows {
		out[i] = make([]timed, len(cells))
		for j, c := range cells {
			r := rw.run
			r.opts = append([]prefetcher.Option(nil), r.opts...)
			if c.set != nil {
				c.set(&r)
			}
			wg.Add(1)
			go func(o *timed) {
				defer wg.Done()
				sem <- struct{}{}
				o.res, o.err = r.time()
				<-sem
			}(&out[i][j])
		}
	}
	wg.Wait()
	res := make([][]result, len(rows))
	for i, rw := range rows {
		res[i] = make([]result, len(cells))
		for j, c := range cells {
			if err := out[i][j].err; err != nil {
				t.Fatalf("%s, %s: %v", rw.name, c.name, err)
			}
			res[i][j] = out[i][j].res
			checkBooks(t, res[i][j], rw.run.faulty())
		}
	}
	return res
}

// logRun logs one run as a line of its row's table.
func logRun(t *testing.T, row, cell string, r result) {
	t.Helper()
	t.Logf("%-26s %-28s t̄ %8.2f ± %6.2f ms  p99 %8.2f ms  failed %4d  h %.3f  issued/req %.3f  util %.3f",
		row, cell, 1e3*r.AccessTime, 1e3*r.AccessTimeCI, 1e3*r.P99, r.Failed, r.HitRatio, r.NFObserved, r.Utilisation)
}

// decide times every cell on every row, logs the table, and returns the
// rows on which the knob's best cell wins.
func decide(t *testing.T, rows []row, cells []cell) (won []string) {
	t.Helper()
	res := table(t, rows, cells)
	for i, rw := range rows {
		var with, without *result
		var withName, withoutName string
		for j, c := range cells {
			logRun(t, rw.name, c.name, res[i][j])
			best, name := &without, &withoutName
			if c.uses {
				best, name = &with, &withName
			}
			if *best == nil || better(res[i][j], **best) {
				*best, *name = &res[i][j], c.name
			}
		}
		if with == nil || without == nil {
			t.Fatalf("%s: a row needs cells with and without the knob", rw.name)
		}
		verdict := "no win"
		if how := wins(*with, *without); how != "" {
			verdict = "wins on " + how
			won = append(won, rw.name)
		}
		t.Logf("%-26s best with: %s; best without: %s; %s", rw.name, withName, withoutName, verdict)
	}
	return won
}

// loads makes one row of base at each offered load, a load being the
// request rate as a share of the links' summed b.
func loads(name string, base run, shares ...float64) []row {
	var rows []row
	for _, s := range shares {
		r := base
		r.lambda = s * r.b
		rows = append(rows, row{name: fmt.Sprintf("%s @%.1f", name, s), run: r})
	}
	return rows
}

// on is adaptive-a, prefetchd's default, on TestRuleSweep's chain over
// the given links (30,000 requests a cell, the first 10,000 warm-up,
// seed 1); its b is theirs summed. Under the race detector a cell runs
// 12,000 requests, 4,000 of them warm-up, which keeps the package's race
// run near two minutes and leaves every test's verdict as it is (one row
// moves: hedging wins the dark spell @0.3 on p99 at 30,000 requests and
// not at 12,000, where it wins @0.6).
func on(links ...origin) run {
	r := run{policy: prefetcher.AdaptiveThreshold(prefetcher.ModelA()), n: 30000, warm: 10000, seed: 1, ids: chain, links: links}
	if raceEnabled {
		r.n, r.warm = 12000, 4000
	}
	for _, o := range links {
		r.b += o.b
	}
	return r
}

// The rows. A slow origin has a tenth or a half of its peer's b; a
// faulty one fails every 20th call, goes dark for 10 s a minute (each
// attempt bounded at 500 ms, about 10× the clean mean), fails every
// call for 50 ms of each second, or fails every call from the start,
// alone or beside a healthy peer.
var (
	slowRows = append(loads("10× slower origin", on(origin{b: 100}, origin{b: 10}), 0.3),
		loads("half-b origin", on(origin{b: 100}, origin{b: 50}), 0.3, 0.6)...)
	darkRows = append(loads("dark spell", on(origin{b: 100, fault: fault{dark: true}, timeout: 500 * time.Millisecond},
		origin{b: 100, timeout: 500 * time.Millisecond}), 0.3, 0.6),
		loads("every 20th, two links", on(origin{b: 100, fault: fault{every: 20}}, origin{b: 100}), 0.3, 0.6)...)
	deadRows  = loads("dead link", on(origin{b: 100, fault: fault{every: 1}}, origin{b: 100}), 0.3)
	everyRows = loads("every 20th, one link", on(origin{b: 100, fault: fault{every: 20}}), 0.3, 0.6)
	burstRows = loads("burst", on(origin{b: 100, fault: fault{burst: 50 * time.Millisecond}}), 0.3, 0.6)
)

// configured gives each backend its link's b as its Bandwidth, where
// the default leaves the fabric to measure it.
func configured(r *run) {
	r.links = append([]origin(nil), r.links...)
	for i := range r.links {
		r.links[i].bandwidth = r.links[i].b
	}
}

func hedged(r *run) { r.opts = append(r.opts, prefetcher.WithHedging(fetch.Hedging{})) }

// TestRoutingDecision re-runs the measurement behind the fabric's one
// routing rule, shortest expected delay, which weighs each link by the
// b the fabric measures: on no row may its t̄ be worse than with each b
// configured by more than the two CI95 half-widths together. And the
// default on the 10×-slower row must read the same when run again.
// Weighted rendezvous and latency routing went when neither beat SED, on
// failed Gets or on t̄ beyond those half-widths, on any of these rows at
// seeds 1, 2 and 3.
//
// Beside a link that fails every call, at once, either cell must fail no
// Get, keep t̄ within the two half-widths of the live link's alone, and
// try the dead link for under 1 % of the ids the live one carries. On
// load alone SED sent the dead link every first attempt and every plan,
// since it holds nothing in flight; weighted rendezvous sent it its
// b-share.
func TestRoutingDecision(t *testing.T) {
	const def, conf = 0, 1 // the cells below
	cells := []cell{
		{name: "SED (default)"},
		{name: "Bandwidth = b", set: configured},
	}
	alone := deadRows[0]
	alone.name, alone.run.links = "live link alone", alone.run.links[1:]
	rows := append(append(append([]row(nil), slowRows...), deadRows...), alone)
	res := table(t, rows, cells)
	for i, rw := range rows {
		for j, c := range cells {
			logRun(t, rw.name, c.name, res[i][j])
		}
		d, c := res[i][def], res[i][conf]
		if d.AccessTime > c.AccessTime+d.AccessTimeCI+c.AccessTimeCI {
			t.Errorf("%s: the default's t̄ %.2f ± %.2f ms is worse than %.2f ± %.2f ms with b configured",
				rw.name, 1e3*d.AccessTime, 1e3*d.AccessTimeCI, 1e3*c.AccessTime, 1e3*c.AccessTimeCI)
		}
	}
	for j, c := range cells {
		d, a := res[len(slowRows)][j], res[len(rows)-1][j]
		dead, live := d.Final.Backends[0], d.Final.Backends[1]
		tried, carried := dead.Demand+dead.Speculative, live.Demand+live.Speculative
		t.Logf("%-26s %-28s dead link tried for %d ids, live link %d", deadRows[0].name, c.name, tried, carried)
		if d.FailedAll != 0 || d.AccessTime > a.AccessTime+d.AccessTimeCI+a.AccessTimeCI || 100*tried >= carried {
			t.Errorf("%s, %s: %d failed Gets, t̄ %.2f ± %.2f ms against %.2f ± %.2f ms alone, the dead link tried for %d ids against %d",
				deadRows[0].name, c.name, d.FailedAll, 1e3*d.AccessTime, 1e3*d.AccessTimeCI, 1e3*a.AccessTime, 1e3*a.AccessTimeCI, tried, carried)
		}
	}
	if again, err := slowRows[0].run.time(); err != nil || !reflect.DeepEqual(again, res[0][def]) {
		t.Errorf("%s, default re-run: %+v (%v), first run %+v", slowRows[0].name, again, err, res[0][def])
	}
}

// TestHedgingDecision keeps hedged racing (a second backend raced once
// the primary passes its p95) only while it wins a row. The circuit
// breaker, timed beside it here and on its own rows, went when under SED
// it won none: not the dark spell, nor bursts on one of two links, nor
// a dark spell on a link of its own, where it cut t̄ but failed more
// Gets. A link dead from the start is timed here too, where routing
// alone must keep it out (see TestRoutingDecision).
func TestHedgingDecision(t *testing.T) {
	if won := decide(t, append(append([]row(nil), darkRows...), deadRows...), []cell{
		{name: "neither"},
		{name: "hedging", uses: true, set: hedged},
	}); len(won) == 0 {
		t.Error("hedging wins no row")
	}
}

// TestMaxAttemptsDecision keeps Hedging.MaxAttempts only while a retry
// budget beyond one attempt per backend wins a row.
func TestMaxAttemptsDecision(t *testing.T) {
	if won := decide(t, everyRows, []cell{
		{name: "one attempt"},
		{name: "MaxAttempts 2", uses: true, set: func(r *run) {
			r.opts = append(r.opts, prefetcher.WithHedging(fetch.Hedging{MaxAttempts: 2}))
		}},
	}); len(won) == 0 {
		t.Error("MaxAttempts wins no row")
	}
}

// TestBackoffDecision keeps Hedging.Backoff only while pausing before a
// retry wins a row against retrying at once.
func TestBackoffDecision(t *testing.T) {
	if won := decide(t, burstRows, []cell{
		{name: "one attempt"},
		{name: "MaxAttempts 2", set: func(r *run) {
			r.opts = append(r.opts, prefetcher.WithHedging(fetch.Hedging{MaxAttempts: 2}))
		}},
		{name: "MaxAttempts 2, Backoff 50ms", uses: true, set: func(r *run) {
			r.opts = append(r.opts, prefetcher.WithHedging(fetch.Hedging{MaxAttempts: 2, Backoff: 50 * time.Millisecond}))
		}},
	}); len(won) == 0 {
		t.Error("Backoff wins no row")
	}
}
