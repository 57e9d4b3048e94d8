package cache_test

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/workload"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
)

// decisionStreams are the key streams the replacement-order decision
// is judged on: the four BENCHMARK.json workloads' generators at the
// entry counts their daemons run (scan-miss at what its byte budget
// holds: 8 MiB of 16 KiB payloads), and one pass of the recorded trace1k
// fixture at two cache sizes. page-batch is read the daemon's way, as
// /batch sessions of 8 keys, and at the daemon's steady state: 400,000
// keys, scored after the first 16,000 (a benchmark run serves about
// 400,000 in its 20 s); every other stream is 20,000 keys, one /obj
// per key, all scored. Each
// stream carries the link load its daemon measured (fetch.rho_prime in
// bench's --trace 1 report): chain-obj ≈0.03, page-batch ≈0.43, hot-obj
// ≈0.03 and scan-miss ≈0.37. The trace has no daemon; it is replayed
// at 0, every candidate admitted.
func decisionStreams(t *testing.T) []decisionStream {
	const n = 20_000
	hot := make([]cache.ID, 0, n)
	zipf, src := rng.NewZipf(1000, 0.9), rng.NewStream(1, "hot-obj")
	for i := 0; i < n; i++ {
		switch {
		case i < 1000: // the warm-up sweep
			hot = append(hot, cache.ID(i))
		case i%128 == 0: // the cold tail
			hot = append(hot, cache.ID(1_000_000+i))
		default:
			hot = append(hot, cache.ID(zipf.Sample(src)))
		}
	}
	chain := make([]cache.ID, n)
	wl := workload.NewMarkov(workload.MarkovConfig{N: 2000, Fanout: 2, Decay: 0.15, Restart: 0.03},
		rng.NewStream(1, "chain-obj"))
	for i := range chain {
		chain[i] = wl.Next()
	}
	var pages []cache.ID
	sessions := workload.NewSessions(workload.SessionConfig{Pages: 400, Fanout: 8, Objects: 1600},
		rng.NewStream(1, "page-batch"))
	for len(pages) < pageKeys {
		pages = sessions.NextInto(pages)
	}
	scan := make([]cache.ID, n)
	src = rng.NewStream(1, "scan-miss")
	mul, off := src.Intn(100_000)*10+3, src.Intn(1_000_000)
	for i := range scan {
		scan[i] = cache.ID((mul*i + off) % 1_000_000)
	}
	f, err := os.Open("../../cmd/prefetchbench/testdata/trace1k.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := workload.NewTraceReader(f).ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("trace1k fixture: %d records, %v", len(recs), err)
	}
	trace := make([]cache.ID, len(recs))
	for i, r := range recs {
		trace[i] = r.Item
	}
	return []decisionStream{
		{"hot-obj/4096", hot, 4096, 1, 0.03, 0}, {"chain-obj/512", chain, 512, 1, 0.03, 0}, {"page-batch/512", pages, 512, 8, 0.43, pageWarm},
		{"scan-miss/511", scan, 511, 1, 0.37, 0}, {"trace1k/32", trace, 32, 1, 0, 0}, {"trace1k/8", trace, 8, 1, 0, 0},
	}
}

// page-batch's replay: its length and the keys replayed before scoring.
const pageKeys, pageWarm = 400_000, 16_000

type decisionStream struct {
	name     string
	ids      []cache.ID
	capacity int
	session  int     // keys per request the daemon serves: 8 for a /batch, 1 for an /obj
	rho      float64 // the link's ρ̂′: the daemon admits a candidate of p̂ above it
	warm     int     // keys replayed before the miss ratio counts
}

// replayer is what missRatio drives: policyStore, slruStore,
// landingStore or modelStore. Admit carries the landing bit: speculative is true for
// a prefetch the threshold rule admitted, false for a demand miss.
type replayer interface {
	Access(id cache.ID) bool
	Admit(id cache.ID, speculative bool)
	Contains(id cache.ID) bool
}

// policyStore is a Store under one of this package's policies, which
// admit whatever lands.
type policyStore struct{ *cache.Store }

func (s policyStore) Admit(id cache.ID, _ bool) { s.Store.Admit(id) }

// slruStore drives the segmented-LRU order, which lives in the store
// prefetcher builds (NewSLRUCache), through replayer.
type slruStore struct{ c prefetcher.Cache }

func (s slruStore) Access(id cache.ID) bool {
	_, ok := s.c.Get(prefetcher.ID(id))
	return ok
}

func (s slruStore) Admit(id cache.ID, _ bool) { s.c.Put(prefetcher.ID(id), []byte(nil)) }

func (s slruStore) Contains(id cache.ID) bool { return s.c.Contains(prefetcher.ID(id)) }

// landingStore drives the store prefetchd mounts (bytestore.New, at
// capacity entries and a byte budget that never binds) the way the
// engine does: a demand read through GetBytes, which the admission
// filter counts, and each landing with its landing bit.
type landingStore struct{ s *bytestore.Store }

func newLandingStore(capacity int) landingStore {
	s, err := bytestore.New(bytestore.Config{CapacityBytes: 64 << 20, MaxEntries: capacity})
	if err != nil {
		panic(err)
	}
	return landingStore{s}
}

func (s landingStore) Access(id cache.ID) bool {
	_, ok := s.s.GetBytes(prefetcher.ID(id), nil)
	return ok
}

func (s landingStore) Admit(id cache.ID, speculative bool) {
	s.s.LandBytes(prefetcher.ID(id), nil, speculative)
}

func (s landingStore) Contains(id cache.ID) bool { return s.s.Contains(prefetcher.ID(id)) }

// modelStore is testutil's slice-and-sketch reference model of a
// filtered store, as a replayer.
type modelStore struct{ *testutil.StoreModel }

func newModelStore(cfg testutil.TinyLFU, capacity int) modelStore {
	return modelStore{testutil.NewStoreModel(cfg, capacity)}
}

func (m modelStore) Access(id cache.ID) bool { return m.StoreModel.Access(int64(id)) }

func (m modelStore) Admit(id cache.ID, speculative bool) { m.StoreModel.Admit(int64(id), speculative) }

func (m modelStore) Contains(id cache.ID) bool { return m.StoreModel.Contains(int64(id)) }

// missRatio replays st's ids through store in requests of session keys
// each (the last request may be shorter). A request gathers its hits,
// then admits its misses. With k > 0 it then plans as the engine does:
// the bounded Markov table observes the request's ids in order,
// predicting only from the last, and of its top k successors those not
// resident whose p̂ exceeds st's link load — the threshold rule's
// p_th = ρ′ — land as speculative admissions. session = 1, k = 4 is an
// /obj stream (4 is WithMaxPrefetch's default); session = 8, k = 4 is
// page-batch's /batch, which plans once per session. Only the keys of
// requests that start st.warm keys in or later are scored.
func missRatio(st decisionStream, store replayer, session, k int) float64 {
	ids, rho, warm := st.ids, st.rho, st.warm
	model := predict.NewConcurrentMarkov1()
	buf := make([]predict.Prediction, 0, k)
	missed := make([]cache.ID, 0, session)
	hits, scored := 0, 0
	for start := 0; start < len(ids); start += session {
		req := ids[start:min(start+session, len(ids))]
		missed = missed[:0]
		if start >= warm {
			scored += len(req)
		}
		for _, id := range req {
			if store.Access(id) {
				if start >= warm {
					hits++
				}
			} else {
				missed = append(missed, id)
			}
		}
		for _, id := range missed {
			store.Admit(id, false)
		}
		if k == 0 {
			continue
		}
		last := len(req) - 1
		for _, id := range req[:last] {
			model.Observe(id)
		}
		buf = model.ObserveAndPredictTopInto(req[last], k, buf[:0])
		for _, p := range buf {
			if p.Prob > rho && !store.Contains(p.Item) {
				store.Admit(p.Item, true)
			}
		}
	}
	return 1 - float64(hits)/float64(scored)
}

// staticOptimum is the miss ratio of a store that holds st's capacity
// most frequent keys, counted over the whole stream, from its first key
// to its last, scored as missRatio scores. It knows the stream in
// advance and pays no first-reference miss, so it is a demand-only
// store's headroom on a stream whose popularity does not drift, not a
// bound on a store that prefetches.
func staticOptimum(st decisionStream) float64 {
	freq := make(map[cache.ID]int)
	for _, id := range st.ids {
		freq[id]++
	}
	keys := make([]cache.ID, 0, len(freq))
	for id := range freq {
		keys = append(keys, id)
	}
	slices.SortFunc(keys, func(a, b cache.ID) int {
		if freq[a] != freq[b] {
			return freq[b] - freq[a]
		}
		return int(a - b)
	})
	held := make(map[cache.ID]bool, st.capacity)
	for _, id := range keys[:min(st.capacity, len(keys))] {
		held[id] = true
	}
	hits, scored := 0, 0
	for start := 0; start < len(st.ids); start += st.session {
		if start < st.warm {
			continue
		}
		for _, id := range st.ids[start:min(start+st.session, len(st.ids))] {
			scored++
			if held[id] {
				hits++
			}
		}
	}
	return 1 - float64(hits)/float64(scored)
}

// TestFilteredStoreEligibility keeps the byte store's replacement
// order reproducible and holds the filtered stores to the miss-ratio
// half of the store decision: eligibility, not the least regret — on
// this axis a candidate may beat the shipped store, which
// internal/vlink's TestStoreDecision chooses on t̄. It replays each
// stream through every policy in this package, through NewSLRUCache at ½, ⅔ and ⅘ of the
// entries protected, through the shipped store (bytestore, through
// store.New: prefetchd's store and the library's default cache) and
// through the reference model of each of testutil.StoreCandidates, and
// logs four columns per row: per-key top 2, per-key top 4, demand-only,
// and the daemon's own shape — top 4 per /obj request, and for
// page-batch top 4 once per 8-key /batch session from its last id —
// each planning column admitting only candidates above the stream's
// link load and landing them speculative — and beside them, ungated,
// the stream's static optimum (staticOptimum). An order's excess on a stream
// is its daemon-shaped miss_ratio minus the best order's there. The test
// fails unless the shipped store has a smaller worst-case excess over
// the six streams than every unfiltered order; unless it and every
// candidate stray at most half as far as SLRU ½ on any stream — the
// store decision's eligibility, on which internal/vlink's
// TestStoreDecision relies when it chooses among the candidates on t̄;
// and unless the shipped store misses at least 0.02 less than LRU on
// page-batch's sessions, where the replacement order, not prefetching,
// sets both of the paper's axes.
func TestFilteredStoreEligibility(t *testing.T) {
	type order struct {
		name string
		mk   func(capacity int) replayer
	}
	policy := func(name string, p func() cache.Policy) order {
		return order{name, func(capacity int) replayer { return policyStore{cache.NewStore(capacity, p())} }}
	}
	slru := func(name string, num, den int) order {
		return order{name, func(capacity int) replayer {
			return slruStore{prefetcher.NewSLRUCache(capacity, capacity*num/den)}
		}}
	}
	// lru, the shipped store and slru½ first: the gates read them by
	// index. The candidates' models come last, from filtered on.
	const shipped, slruHalf = 1, 2
	orders := []order{
		policy("lru", func() cache.Policy { return cache.NewLRU() }),
		{"shipped", func(capacity int) replayer { return newLandingStore(capacity) }},
		slru("slru½", 1, 2),
		slru("slru⅔", 2, 3),
		slru("slru⅘", 4, 5),
		policy("fifo", func() cache.Policy { return cache.NewFIFO() }),
		policy("lfu", func() cache.Policy { return cache.NewLFU() }),
		policy("clock", func() cache.Policy { return cache.NewClock() }),
		policy("random", func() cache.Policy { return cache.NewRandomPolicy(rng.NewStream(1, "random-policy")) }),
	}
	filtered := len(orders)
	for _, c := range testutil.StoreCandidates {
		c := c
		orders = append(orders, order{c.Name, func(capacity int) replayer { return newModelStore(c, capacity) }})
	}
	worst := make([]float64, len(orders)) // worst-case excess, per order
	for _, st := range decisionStreams(t) {
		// Each order's four replays, on GOMAXPROCS goroutines: top 2, top
		// 4 and demand-only per key, and as the daemon plans.
		cols := make([][4]float64, len(orders))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, o := range orders {
			for j, shape := range [4][2]int{{1, 2}, {1, 4}, {1, 0}, {st.session, 4}} {
				wg.Add(1)
				go func(out *float64, mk func(int) replayer, st decisionStream, session, k int) {
					defer wg.Done()
					sem <- struct{}{}
					*out = missRatio(st, mk(st.capacity), session, k)
					<-sem
				}(&cols[i][j], o.mk, st, shape[0], shape[1])
			}
		}
		wg.Wait()
		daemon := make([]float64, len(orders))
		for i, o := range orders {
			daemon[i] = cols[i][3]
			t.Logf("%-15s ρ̂′ %.2f %-16s miss_ratio %.4f per-key top 2, %.4f top 4, %.4f demand-only, %.4f as the daemon plans",
				st.name, st.rho, o.name, cols[i][0], cols[i][1], cols[i][2], daemon[i])
		}
		t.Logf("%-15s ρ̂′ %.2f %-16s miss_ratio %.4f: the static optimum, its %d most frequent keys held throughout",
			st.name, st.rho, "static optimum", staticOptimum(st), st.capacity)
		best := slices.Min(daemon)
		for i, m := range daemon {
			worst[i] = max(worst[i], m-best)
		}
		if st.session > 1 && daemon[shipped] > daemon[0]-0.02 {
			t.Errorf("%s: %s misses %.4f of keys in the daemon's sessions against lru's %.4f — under 0.02 apart, the store's order no longer earns its place on the stream it was chosen for",
				st.name, orders[shipped].name, daemon[shipped], daemon[0])
		}
	}
	for i, w := range worst {
		t.Logf("worst-case excess miss_ratio as the daemon plans: %-16s %.4f", orders[i].name, w)
	}
	for i, w := range worst[:filtered] {
		if i != shipped && w < worst[shipped] {
			t.Errorf("%s strays at most %.4f from the best order on any stream, %s %.4f — the shipped store (store.New, the engine's default cache) no longer has less regret than every unfiltered order",
				orders[i].name, w, orders[shipped].name, worst[shipped])
		}
	}
	// The store decision's eligibility: a filtered store strays at most
	// half as far from the best as segmented LRU ½ does.
	for i, w := range worst {
		if (i == shipped || i >= filtered) && w > worst[slruHalf]/2 {
			t.Errorf("%s strays %.4f from the best order on some stream, past half of slru½'s %.4f: it is not eligible for the store decision",
				orders[i].name, w, worst[slruHalf])
		}
	}
}

// lockstep drives a store and its reference model with the same calls
// and fails at the first answer, or residency after a landing, on which
// they differ.
type lockstep struct {
	t          *testing.T
	got, want  replayer
	what       string
	ops, admit int
}

func (l *lockstep) Access(id cache.ID) bool {
	l.ops++
	got, want := l.got.Access(id), l.want.Access(id)
	if got != want {
		l.t.Fatalf("%s op %d: Access(%d) = %t; reference %t", l.what, l.ops, id, got, want)
	}
	return got
}

func (l *lockstep) Admit(id cache.ID, speculative bool) {
	l.ops++
	l.admit++
	l.got.Admit(id, speculative)
	l.want.Admit(id, speculative)
	if got, want := l.got.Contains(id), l.want.Contains(id); got != want {
		l.t.Fatalf("%s op %d: Admit(%d, speculative %t) left it resident %t; reference %t", l.what, l.ops, id, speculative, got, want)
	}
}

func (l *lockstep) Contains(id cache.ID) bool {
	l.ops++
	got, want := l.got.Contains(id), l.want.Contains(id)
	if got != want {
		l.t.Fatalf("%s op %d: Contains(%d) = %t; reference %t", l.what, l.ops, id, got, want)
	}
	return got
}

// TestShippedStoreMatchesReference holds the store prefetchd mounts to
// testutil's reference model of the candidate it ships
// (testutil.StoreCandidates[testutil.ShippedCandidate]) op for op —
// every Access's hit or miss, every landing's residency, and as many
// demand landings declined — on each decision stream, demand-only and
// as the daemon plans.
func TestShippedStoreMatchesReference(t *testing.T) {
	shape := testutil.StoreCandidates[testutil.ShippedCandidate]
	for _, st := range decisionStreams(t) {
		for _, k := range []int{0, 4} {
			store, ref := newLandingStore(st.capacity), newModelStore(shape, st.capacity)
			l := &lockstep{t: t, got: store, want: ref, what: fmt.Sprintf("%s top %d", st.name, k)}
			missRatio(st, l, st.session, k)
			if got := store.s.SlabStats().Declined; got != int64(ref.Declined) {
				t.Fatalf("%s: the store declined %d landings, the reference %d", l.what, got, ref.Declined)
			}
			t.Logf("%-15s top %d: %d ops in lockstep against %s, %d landings, %d declined", st.name, k, l.ops, shape.Name, l.admit, ref.Declined)
		}
	}
}

// TestFilterMakesWayAfterDrift moves the hot set of a stationary stream
// once: Zipf(0.9) draws over 4,096 keys for ten of the sketch's halving
// periods (40× the bound of 512, 20,480 keys each), then over 4,096 keys
// never seen before for ten more, replayed demand-only through the
// shipped store and the reference model of each candidate, and scored
// per period. A frequency filter is slowest to make way here: the old
// hot keys keep their counts until the halvings wear them down. A count
// halves once a period, so from the 8-bit ceiling of 255 it falls below
// 2, where a new key counted twice out-counts it, in 7; a period more
// lets the new hot keys count up. The test fails unless the shipped
// store's miss ratio comes back within 0.02 of its steady one — the mean
// over the five periods before the move — within 8 periods of it.
func TestFilterMakesWayAfterDrift(t *testing.T) {
	const bound, keys, periods, within = 512, 4096, 10, 8
	period := 40 * bound
	zipf, src := rng.NewZipf(keys, 0.9), rng.NewStream(1, "drift")
	ids := make([]cache.ID, 2*periods*period)
	for i := range ids {
		ids[i] = cache.ID(zipf.Sample(src))
		if i >= periods*period {
			ids[i] += keys
		}
	}
	stores := []struct {
		name string
		r    replayer
	}{{"shipped", newLandingStore(bound)}}
	for _, c := range testutil.StoreCandidates {
		stores = append(stores, struct {
			name string
			r    replayer
		}{c.Name, newModelStore(c, bound)})
	}
	for i, s := range stores {
		miss := make([]float64, 2*periods)
		for p := range miss {
			st := decisionStream{ids: ids[p*period : (p+1)*period]}
			miss[p] = missRatio(st, s.r, 1, 0)
		}
		steady := 0.0
		for _, m := range miss[periods-5 : periods] {
			steady += m / 5
		}
		back := slices.IndexFunc(miss[periods:], func(m float64) bool { return m <= steady+0.02 })
		t.Logf("%-16s steady miss_ratio %.4f; by period after the move %.4f; back within 0.02 in period %d",
			s.name, steady, miss[periods:], back+1)
		if i == 0 && (back < 0 || back >= within) {
			t.Errorf("the shipped store's miss ratio is not back within 0.02 of its steady %.4f within %d halving periods of the move: %.4f",
				steady, within, miss[periods:])
		}
	}
}
