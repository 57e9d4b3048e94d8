//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package vlink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/prefetcher"
	"repro/prefetcher/fetch"
)

// demandKey marks a request's context. The engine fetches a demand miss
// under its caller's context and a prefetch under its own, so a transfer
// whose context carries the mark is demand traffic and any other is
// speculative: the link measures ρ′ rather than assuming it.
type demandKey struct{}

// Traffic classes, indexing link.sent.
const (
	demand = iota
	speculative
)

// link is a processor-sharing link of capacity b, in item sizes per
// second: while n transfers are in flight each drains at b/n (paper
// table T8). A batch reply is one transfer of the sum of its sizes. One
// goroutine with one timer serves it. The timer is rounded up to the
// nanosecond: rounded down, it fires a hair before the transfer is done
// and re-arms at the same instant, and the bubble's clock never moves.
// A transfer whose context ends leaves the link at once, so a cancelled
// hedge or a timed-out attempt stops taking its share.
type link struct {
	b             float64
	fault         fault
	calls         atomic.Int64 // calls so far, in arrival order
	epoch         time.Time
	arrive, leave chan *transfer
	stop          chan struct{}
	sent          [2]atomic.Int64 // items delivered, per class
}

type transfer struct {
	work float64
	done chan struct{}
}

func newLink(b float64, f fault) *link {
	l := &link{b: b, fault: f, epoch: time.Now(), arrive: make(chan *transfer), leave: make(chan *transfer), stop: make(chan struct{})}
	go l.run()
	return l
}

func (l *link) run() {
	var active []*transfer
	last := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// advance drains every active transfer by its share of the time since
	// the last event and completes those that are done.
	advance := func() {
		now := time.Now()
		if n := len(active); n > 0 {
			drained := now.Sub(last).Seconds() * l.b / float64(n)
			kept := active[:0]
			for _, t := range active {
				if t.work -= drained; t.work > 1e-9 {
					kept = append(kept, t)
				} else {
					close(t.done)
				}
			}
			clear(active[len(kept):])
			active = kept
		}
		last = now
	}
	for {
		var fire <-chan time.Time
		if len(active) > 0 {
			least := active[0].work
			for _, t := range active[1:] {
				least = min(least, t.work)
			}
			timer.Reset(time.Duration(math.Ceil(least * float64(len(active)) / l.b * 1e9)))
			fire = timer.C
		}
		select {
		case t := <-l.arrive:
			advance()
			active = append(active, t)
		case t := <-l.leave:
			advance()
			for i, a := range active {
				if a == t {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
		case <-fire:
			advance()
		case <-l.stop:
			return
		}
	}
}

// payload is every item's Data: an empty []byte, which a store copies
// into its arena (and its admission filter, where it has one, judges)
// rather than boxing, at no allocation.
var payload = []byte{}

// Fetch sends one item of size 1.
func (l *link) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	if err := l.transfer(ctx, 1); err != nil {
		return fetch.Item{}, err
	}
	return fetch.Item{ID: id, Size: 1, Data: payload}, nil
}

// FetchBatch sends the items as one transfer.
func (l *link) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	if err := l.transfer(ctx, len(ids)); err != nil {
		return nil, err
	}
	items := make([]fetch.Item, len(ids))
	for i, id := range ids {
		items[i] = fetch.Item{ID: id, Size: 1, Data: payload}
	}
	return items, nil
}

// transfer sends n items and returns once they have drained, or once ctx
// ends, or at once with the link's fault.
func (l *link) transfer(ctx context.Context, n int) error {
	switch l.fault.at(l.calls.Add(1), time.Since(l.epoch)) {
	case fail:
		return errFault
	case hang:
		<-ctx.Done()
		return ctx.Err()
	}
	t := &transfer{work: float64(n), done: make(chan struct{})}
	select {
	case l.arrive <- t:
	case <-l.stop: // a hedge loser may outlive the run
		return errFault
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		select {
		case l.leave <- t:
		case <-l.stop:
		}
		return ctx.Err()
	}
	class := speculative
	if ctx.Value(demandKey{}) != nil {
		class = demand
	}
	l.sent[class].Add(int64(n))
	return nil
}

// errFault is what a faulty link's failing call returns.
var errFault = errors.New("vlink: injected fault")

// origin is one backend of a run: a link of capacity b with its fault,
// the Bandwidth its backend is configured with (0: measured online) and
// a per-attempt bound on both classes (0: none).
type origin struct {
	b, bandwidth float64
	fault        fault
	timeout      time.Duration
}

// cacheEntries is every run's store: segmented LRU with half protected,
// the order prefetchd's spaces and New's default cache run.
const cacheEntries = 20

// run is one engine on its links, built as prefetchd builds a space
// (WithBandwidth(b), backends with no Bandwidth of their own). Its
// source is open loop: arrivals are Poisson at rate lambda; each starts
// its own Get, and its access time runs from the arrival instant, so a
// slow reply never holds the next request back. The first warm requests
// warm the cache and the estimators; the rest are measured.
type run struct {
	policy    prefetcher.Policy
	lambda, b float64
	n, warm   int
	seed      uint64
	// ids makes the id stream from its own random source.
	ids func(*rng.Source) func() fetch.ID
	// links are the backends; nil is one fault-free link of capacity b.
	links []origin
	// opts configure the fabric: hedging and its retry budget.
	opts []prefetcher.Option
	// cache builds the store; nil is NewSLRUCache's of cacheEntries.
	cache func() prefetcher.Cache
}

// origins returns r's backends.
func (r run) origins() []origin {
	if r.links == nil {
		return []origin{{b: r.b}}
	}
	return r.links
}

// faulty reports whether any of r's links fails calls.
func (r run) faulty() bool {
	for _, o := range r.origins() {
		if o.fault != (fault{}) {
			return true
		}
	}
	return false
}

func (r run) measure(t *testing.T) result {
	t.Helper()
	res, err := r.time()
	if err != nil {
		t.Fatal(err)
	}
	checkBooks(t, res, r.faulty())
	return res
}

// time runs r in a synctest bubble of its own, so runs on several
// goroutines keep separate clocks. The bubble hands its result out over
// a channel: the race detector sees no ordering between the bubble's
// goroutines and synctest.Run's return.
func (r run) time() (result, error) {
	out := make(chan result, 1)
	errc := make(chan error, 1)
	synctest.Run(func() {
		res, err := r.bubble()
		out <- res
		errc <- err
	})
	return <-out, <-errc
}

// bubble runs r inside the caller's synctest bubble.
func (r run) bubble() (res result, err error) {
	origins := r.origins()
	links := make([]*link, len(origins))
	backends := make([]fetch.Backend, len(origins))
	for i, o := range origins {
		links[i] = newLink(o.b, o.fault)
		defer close(links[i].stop)
		backends[i] = fetch.Backend{Name: fmt.Sprintf("vlink%d", i), Fetcher: links[i], Bandwidth: o.bandwidth,
			DemandTimeout: o.timeout, SpeculativeTimeout: o.timeout}
	}
	c := prefetcher.NewSLRUCache(cacheEntries, cacheEntries/2)
	if r.cache != nil {
		c = r.cache()
	}
	eng, err := prefetcher.New(nil, append([]prefetcher.Option{
		prefetcher.WithBackends(backends...),
		prefetcher.WithPolicy(r.policy),
		prefetcher.WithBandwidth(r.b),
		prefetcher.WithCache(c)}, r.opts...)...)
	if err != nil {
		return res, err
	}
	var (
		arrivals       = workload.NewArrivals(r.lambda, rng.NewStream(r.seed, "arrivals"))
		ctx            = context.WithValue(context.Background(), demandKey{}, true)
		next           = r.ids(rng.NewStream(r.seed, "ids"))
		access         = make([]time.Duration, r.n)
		done           = make(chan struct{}, r.n)
		from, to       prefetcher.Stats
		d0, a0, d1, a1 int64 // items sent, demand and all, at t0 and t1
		t0, t1         time.Time
		rhos, linkRhos stats.Running
		failed         [2]atomic.Int64 // failed Gets: all, and measured
	)
	sent := func() (demandItems, allItems int64) {
		for _, l := range links {
			d := l.sent[demand].Load()
			demandItems, allItems = demandItems+d, allItems+d+l.sent[speculative].Load()
		}
		return demandItems, allItems
	}
	start := time.Now()
	for i := 0; i < r.n; i++ {
		at := start.Add(time.Duration(arrivals.Next() * 1e9))
		time.Sleep(time.Until(at))
		switch {
		case i == r.warm:
			from, t0 = eng.Stats(), at
			d0, a0 = sent()
		case i == r.n-1:
			to, t1 = eng.Stats(), at
			d1, a1 = sent()
		case i > r.warm && i%64 == 0:
			st := eng.Stats()
			rhos.Add(st.RhoPrime)
			linkRhos.Add(st.Backends[0].RhoPrime)
		}
		id := next()
		go func(i int) {
			if _, err := eng.Get(ctx, id); err != nil {
				failed[0].Add(1)
				if i >= r.warm {
					failed[1].Add(1)
				}
			}
			access[i] = time.Since(at)
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < r.n; i++ {
		<-done
	}
	err = eng.Quiesce(context.Background())
	res.Final = eng.Stats()
	eng.Close()

	res.FailedAll, res.Failed = failed[0].Load(), failed[1].Load()
	res.Duration = t1.Sub(t0).Seconds()
	res.Utilisation = float64(a1-a0) / (r.b * res.Duration)
	res.DemandUtilisation = float64(d1-d0) / (r.b * res.Duration)
	res.Requests = to.Requests - from.Requests
	res.HitRatio = float64(to.Hits-from.Hits) / float64(res.Requests)
	res.NFObserved = float64(to.PrefetchIssued-from.PrefetchIssued) / float64(res.Requests)
	res.HPrimeEstimate = res.Final.HPrime
	res.RhoPrimeEstimate, res.LinkRhoPrime = rhos.Mean(), linkRhos.Mean()
	bm := stats.NewBatchMeans((r.n - r.warm) / 20)
	secs := make([]float64, 0, r.n-r.warm)
	for _, d := range access[r.warm:] {
		bm.Add(d.Seconds())
		secs = append(secs, d.Seconds())
	}
	res.AccessTime, res.AccessTimeCI = bm.Mean(), bm.CI95()
	res.P99 = stats.Quantiles(secs, 0.99)[0]
	return res, err
}

// checkBooks holds a run on fault-free links to no failed Get, warm-up
// included, and every run's quiesced engine's public counters to the
// identities its write core keeps: every request a hit or a miss,
// nothing in flight, every issued prefetch at most once used, wasted or
// failed (the rest are still resident, unused), and the store within
// its entry bound.
func checkBooks(t *testing.T, res result, faulty bool) {
	t.Helper()
	st := res.Final
	if res.FailedAll != 0 && !faulty {
		t.Errorf("%d Gets failed", res.FailedAll)
	}
	if st.Requests != st.Hits+st.Misses {
		t.Errorf("Requests %d != Hits %d + Misses %d", st.Requests, st.Hits, st.Misses)
	}
	if st.InFlight != 0 {
		t.Errorf("%d fetches in flight after Quiesce", st.InFlight)
	}
	if settled := st.PrefetchUsed + st.PrefetchWasted + st.PrefetchErrors; st.PrefetchIssued < settled {
		t.Errorf("PrefetchIssued %d < Used + Wasted + Errors = %d", st.PrefetchIssued, settled)
	}
	if st.CacheLen > cacheEntries {
		t.Errorf("CacheLen %d above the store's %d entries", st.CacheLen, cacheEntries)
	}
}
