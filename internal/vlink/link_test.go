//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package vlink

import (
	"context"
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
type link struct {
	b      float64
	arrive chan *transfer
	stop   chan struct{}
	sent   [2]atomic.Int64 // items delivered, per class
}

type transfer struct {
	work float64
	done chan struct{}
}

func newLink(b float64) *link {
	l := &link{b: b, arrive: make(chan *transfer), stop: make(chan struct{})}
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
		case <-fire:
			advance()
		case <-l.stop:
			return
		}
	}
}

// Fetch sends one item of size 1.
func (l *link) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	l.transfer(ctx, 1)
	return fetch.Item{ID: id, Size: 1}, nil
}

// FetchBatch sends the items as one transfer.
func (l *link) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	l.transfer(ctx, len(ids))
	items := make([]fetch.Item, len(ids))
	for i, id := range ids {
		items[i] = fetch.Item{ID: id, Size: 1}
	}
	return items, nil
}

// transfer sends n items and returns once they have drained. It does not
// watch ctx: nothing in these runs cancels a fetch.
func (l *link) transfer(ctx context.Context, n int) {
	t := &transfer{work: float64(n), done: make(chan struct{})}
	l.arrive <- t
	<-t.done
	class := speculative
	if ctx.Value(demandKey{}) != nil {
		class = demand
	}
	l.sent[class].Add(int64(n))
}

// cacheEntries is every run's store: segmented LRU with half protected,
// the order prefetchd's spaces and New's default cache run.
const cacheEntries = 20

// run is one engine on one link of capacity b, built as prefetchd builds
// a space (WithBandwidth(b), a backend with no Bandwidth of its own). Its
// source is open loop: arrivals are Poisson at rate lambda, each starts
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
}

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
	// Final is the engine's Stats once quiesced; Failed counts Gets that
	// returned an error.
	Final  prefetcher.Stats
	Failed int64
}

func (r run) measure(t *testing.T) result {
	t.Helper()
	// The bubble hands its result out over a channel: the race detector
	// sees no ordering between the bubble's goroutines and synctest.Run's
	// return.
	out := make(chan result, 1)
	errc := make(chan error, 1)
	synctest.Run(func() {
		res, err := r.bubble()
		out <- res
		errc <- err
	})
	res, err := <-out, <-errc
	if err != nil {
		t.Fatal(err)
	}
	checkBooks(t, res)
	return res
}

// bubble runs r inside the caller's synctest bubble.
func (r run) bubble() (res result, err error) {
	l := newLink(r.b)
	defer close(l.stop)
	eng, err := prefetcher.New(nil,
		prefetcher.WithBackends(fetch.Backend{Name: "vlink", Fetcher: l}),
		prefetcher.WithPolicy(r.policy),
		prefetcher.WithBandwidth(r.b),
		prefetcher.WithCache(prefetcher.NewSLRUCache(cacheEntries, cacheEntries/2)))
	if err != nil {
		return res, err
	}
	var (
		ctx            = context.WithValue(context.Background(), demandKey{}, true)
		arrivals       = workload.NewArrivals(r.lambda, rng.NewStream(r.seed, "arrivals"))
		next           = r.ids(rng.NewStream(r.seed, "ids"))
		access         = make([]time.Duration, r.n)
		done           = make(chan struct{}, r.n)
		from, to       prefetcher.Stats
		d0, a0, d1, a1 int64 // items sent, demand and all, at t0 and t1
		t0, t1         time.Time
		rhos, linkRhos stats.Running
		failed         atomic.Int64
	)
	sent := func() (demandItems, allItems int64) {
		d := l.sent[demand].Load()
		return d, d + l.sent[speculative].Load()
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
				failed.Add(1)
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

	res.Failed = failed.Load()
	res.Duration = t1.Sub(t0).Seconds()
	res.Utilisation = float64(a1-a0) / (r.b * res.Duration)
	res.DemandUtilisation = float64(d1-d0) / (r.b * res.Duration)
	res.Requests = to.Requests - from.Requests
	res.HitRatio = float64(to.Hits-from.Hits) / float64(res.Requests)
	res.NFObserved = float64(to.PrefetchIssued-from.PrefetchIssued) / float64(res.Requests)
	res.HPrimeEstimate = res.Final.HPrime
	res.RhoPrimeEstimate, res.LinkRhoPrime = rhos.Mean(), linkRhos.Mean()
	bm := stats.NewBatchMeans((r.n - r.warm) / 20)
	for _, d := range access[r.warm:] {
		bm.Add(d.Seconds())
	}
	res.AccessTime, res.AccessTimeCI = bm.Mean(), bm.CI95()
	return res, err
}

// checkBooks holds a run to no failed Get, and its quiesced engine's
// public counters to the identities its write core keeps: every request
// a hit or a miss, nothing in flight, every issued prefetch at most once
// used, wasted or failed (the rest are still resident, unused), and the
// store within its entry bound.
func checkBooks(t *testing.T, res result) {
	t.Helper()
	st := res.Final
	if res.Failed != 0 {
		t.Errorf("%d Gets failed", res.Failed)
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
