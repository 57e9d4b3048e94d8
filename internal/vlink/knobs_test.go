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

// decide times every cell on every row, logs the table, and returns the
// rows on which the knob's best cell wins and every run's result, by
// row and cell. The runs go GOMAXPROCS at a time, each in a bubble of
// its own.
func decide(t *testing.T, rows []row, cells []cell) (won []string, res [][]result) {
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
	res = make([][]result, len(rows))
	for i, rw := range rows {
		res[i] = make([]result, len(cells))
		var with, without *result
		var withName, withoutName string
		for j, c := range cells {
			r, err := out[i][j].res, out[i][j].err
			if err != nil {
				t.Fatalf("%s, %s: %v", rw.name, c.name, err)
			}
			res[i][j] = r
			checkBooks(t, r, rw.run.faulty())
			t.Logf("%-26s %-28s t̄ %8.2f ± %6.2f ms  p99 %8.2f ms  failed %4d  h %.3f  issued/req %.3f  util %.3f",
				rw.name, c.name, 1e3*r.AccessTime, 1e3*r.AccessTimeCI, 1e3*r.P99, r.Failed, r.HitRatio, r.NFObserved, r.Utilisation)
			best, name := &without, &withoutName
			if c.uses {
				best, name = &with, &withName
			}
			if *best == nil || better(r, **best) {
				*best, *name = &out[i][j].res, c.name
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
	return won, res
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
// run near two minutes and leaves every verdict as it is.
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
// attempt bounded at 500 ms, about 10× the clean mean), or fails every
// call for 50 ms of each second, alone or beside a healthy peer.
var (
	slowRows = append(loads("10× slower origin", on(origin{b: 100}, origin{b: 10}), 0.3),
		loads("half-b origin", on(origin{b: 100}, origin{b: 50}), 0.3, 0.6)...)
	darkRows = append(loads("dark spell", on(origin{b: 100, fault: fault{dark: true}, timeout: 500 * time.Millisecond},
		origin{b: 100, timeout: 500 * time.Millisecond}), 0.3),
		loads("every 20th, two links", on(origin{b: 100, fault: fault{every: 20}}, origin{b: 100}), 0.3, 0.6)...)
	everyRows    = loads("every 20th, one link", on(origin{b: 100, fault: fault{every: 20}}), 0.3, 0.6)
	burstRows    = loads("burst", on(origin{b: 100, fault: fault{burst: 50 * time.Millisecond}}), 0.3, 0.6)
	burstTwoRows = loads("burst, two links", on(origin{b: 100, fault: fault{burst: 50 * time.Millisecond}}, origin{b: 100}), 0.3, 0.6)
)

// configured gives each backend its link's b as its Bandwidth, where
// the default leaves the fabric to measure it.
func configured(r *run) {
	r.links = append([]origin(nil), r.links...)
	for i := range r.links {
		r.links[i].bandwidth = r.links[i].b
	}
}

func latency(r *run) { r.opts = append(r.opts, prefetcher.WithRouting(fetch.RouteLatency)) }

func hedged(r *run) { r.opts = append(r.opts, prefetcher.WithHedging(fetch.Hedging{})) }

func broken(r *run) { r.opts = append(r.opts, prefetcher.WithBreaker()) }

// TestRoutingDecision keeps RouteLatency beside the default weighted
// rendezvous only while it wins a row against the default, which
// weighs each link by the b the fabric measures, or against the default
// with each b configured. It also re-runs the measurement behind the
// removal of a per-backend routing weight: on no row may the default's
// t̄ be worse than the configured-b cell's by more than the two CI95
// half-widths together. And the default on the 10×-slower row must
// read the same when run again.
func TestRoutingDecision(t *testing.T) {
	const def, conf = 0, 1 // the cells below
	cells := []cell{
		{name: "weighted (default)"},
		{name: "Bandwidth = b", set: configured},
		{name: "latency", uses: true, set: latency},
	}
	won, res := decide(t, slowRows, cells)
	if len(won) == 0 {
		t.Error("latency routing wins no row")
	}
	for i, rw := range slowRows {
		d, c := res[i][def], res[i][conf]
		if d.AccessTime > c.AccessTime+d.AccessTimeCI+c.AccessTimeCI {
			t.Errorf("%s: the default's t̄ %.2f ± %.2f ms is worse than %.2f ± %.2f ms with b configured",
				rw.name, 1e3*d.AccessTime, 1e3*d.AccessTimeCI, 1e3*c.AccessTime, 1e3*c.AccessTimeCI)
		}
	}
	if again, err := slowRows[0].run.time(); err != nil || !reflect.DeepEqual(again, res[0][def]) {
		t.Errorf("%s, default re-run: %+v (%v), first run %+v", slowRows[0].name, again, err, res[0][def])
	}
}

// TestHedgingDecision keeps hedged racing (a second backend raced once
// the primary passes its p95) only while it wins a row, with or without
// the breaker beside it.
func TestHedgingDecision(t *testing.T) {
	if won, _ := decide(t, darkRows, []cell{
		{name: "neither"},
		{name: "breaker", set: broken},
		{name: "hedging", uses: true, set: hedged},
		{name: "hedging + breaker", uses: true, set: func(r *run) { hedged(r); broken(r) }},
	}); len(won) == 0 {
		t.Error("hedging wins no row")
	}
}

// TestBreakerDecision keeps the circuit breaker only while it wins a
// row, with or without hedging beside it. Beside the dark spell it times
// the burst on one of two links, which failover absorbs without it.
func TestBreakerDecision(t *testing.T) {
	if won, _ := decide(t, append(append([]row(nil), darkRows...), burstTwoRows...), []cell{
		{name: "neither"},
		{name: "hedging", set: hedged},
		{name: "breaker", uses: true, set: broken},
		{name: "hedging + breaker", uses: true, set: func(r *run) { hedged(r); broken(r) }},
	}); len(won) == 0 {
		t.Error("the breaker wins no row")
	}
}

// TestMaxAttemptsDecision keeps Hedging.MaxAttempts only while a retry
// budget beyond one attempt per backend wins a row.
func TestMaxAttemptsDecision(t *testing.T) {
	if won, _ := decide(t, everyRows, []cell{
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
	if won, _ := decide(t, burstRows, []cell{
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
