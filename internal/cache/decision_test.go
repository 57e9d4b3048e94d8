package cache_test

import (
	"os"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/prefetcher"
)

// decisionStreams are the key streams the replacement-order decision
// is judged on: the four BENCHMARK.json workloads' generators at the
// entry counts their daemons run (scan-miss at what its byte budget
// holds: 8 MiB of 16 KiB payloads), and one pass of the recorded trace1k
// fixture at two cache sizes. page-batch is read the daemon's way, as
// /batch sessions of 8 keys; every other stream one /obj per key.
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
	for len(pages) < n {
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
		{"hot-obj/4096", hot, 4096, 1}, {"chain-obj/512", chain, 512, 1}, {"page-batch/512", pages, 512, 8},
		{"scan-miss/511", scan, 511, 1}, {"trace1k/32", trace, 32, 1}, {"trace1k/8", trace, 8, 1},
	}
}

type decisionStream struct {
	name     string
	ids      []cache.ID
	capacity int
	session  int // keys per request the daemon serves: 8 for a /batch, 1 for an /obj
}

// replayer is what missRatio drives: a Store under one of this
// package's policies, or slruStore.
type replayer interface {
	Access(id cache.ID) bool
	Admit(id cache.ID) bool
	Contains(id cache.ID) bool
}

// slruStore drives the segmented-LRU order, which lives in the store
// prefetcher builds (NewSLRUCache), through replayer.
type slruStore struct{ c prefetcher.Cache }

func (s slruStore) Access(id cache.ID) bool {
	_, ok := s.c.Get(prefetcher.ID(id))
	return ok
}

func (s slruStore) Admit(id cache.ID) bool {
	s.c.Put(prefetcher.ID(id), []byte(nil))
	return true
}

func (s slruStore) Contains(id cache.ID) bool { return s.c.Contains(prefetcher.ID(id)) }

// missRatio replays ids through store in requests of session keys
// each (the last request may be shorter). A request gathers its hits,
// then admits its misses. With k > 0 it then plans as the engine does:
// the bounded Markov table observes the request's ids in order,
// predicting only from the last, and its top k successors are admitted
// if they are not resident (on these streams the link's ρ̂′ sits below
// the successors' p̂, so the threshold rule admits them). session = 1,
// k = 4 is an /obj stream (4 is WithMaxPrefetch's default); session = 8,
// k = 4 is page-batch's /batch, which plans once per session.
func missRatio(ids []cache.ID, store replayer, session, k int) float64 {
	model := predict.NewConcurrentMarkov1()
	buf := make([]predict.Prediction, 0, k)
	missed := make([]cache.ID, 0, session)
	hits := 0
	for start := 0; start < len(ids); start += session {
		req := ids[start:min(start+session, len(ids))]
		missed = missed[:0]
		for _, id := range req {
			if store.Access(id) {
				hits++
			} else {
				missed = append(missed, id)
			}
		}
		for _, id := range missed {
			store.Admit(id)
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
			if !store.Contains(p.Item) {
				store.Admit(p.Item)
			}
		}
	}
	return 1 - float64(hits)/float64(len(ids))
}

// TestShippedOrderHasLeastRegret keeps the byte store's replacement
// order reproducible: prefetchd's store (bytestore, through store.New)
// and the library's default cache ship segmented LRU with half the
// entries protected because, on the traffic the daemon serves, no order
// strays less far from the best one on any stream. It replays each
// stream through every policy in this package and through NewSLRUCache
// at ½, ⅔ and ⅘ of the entries protected, and logs four columns per
// row: per-key top 2, per-key top 4, demand-only, and the daemon's own
// shape — top 4 per /obj request, and for page-batch top 4 once per
// 8-key /batch session from its last id. A policy's excess on a stream
// is its daemon-shaped miss_ratio minus the best policy's there. The
// test fails unless SLRU ½ has the smallest worst-case excess over the
// six streams, and unless it misses at least 0.02 less than LRU on
// page-batch's sessions, where the replacement order, not prefetching,
// sets both of the paper's axes.
func TestShippedOrderHasLeastRegret(t *testing.T) {
	policy := func(p func() cache.Policy) func(int) (string, replayer) {
		return func(capacity int) (string, replayer) {
			s := cache.NewStore(capacity, p())
			return s.PolicyName(), s
		}
	}
	slru := func(name string, num, den int) func(int) (string, replayer) {
		return func(capacity int) (string, replayer) {
			return name, slruStore{prefetcher.NewSLRUCache(capacity, capacity*num/den)}
		}
	}
	// lru first and slru ½ second: the gates read both by index.
	stores := []func(capacity int) (string, replayer){
		policy(func() cache.Policy { return cache.NewLRU() }),
		slru("slru½", 1, 2),
		slru("slru⅔", 2, 3),
		slru("slru⅘", 4, 5),
		policy(func() cache.Policy { return cache.NewFIFO() }),
		policy(func() cache.Policy { return cache.NewLFU() }),
		policy(func() cache.Policy { return cache.NewClock() }),
		policy(func() cache.Policy { return cache.NewRandomPolicy(rng.NewStream(1, "random-policy")) }),
	}
	names := make([]string, len(stores))
	worst := make([]float64, len(stores)) // worst-case excess, per policy
	for _, st := range decisionStreams(t) {
		daemon := make([]float64, len(stores))
		for i, mk := range stores {
			var s replayer
			names[i], s = mk(st.capacity)
			top2 := missRatio(st.ids, s, 1, 2)
			_, s = mk(st.capacity)
			top4 := missRatio(st.ids, s, 1, 4)
			_, s = mk(st.capacity)
			off := missRatio(st.ids, s, 1, 0)
			daemon[i] = top4
			if st.session > 1 {
				_, s = mk(st.capacity)
				daemon[i] = missRatio(st.ids, s, st.session, 4)
			}
			t.Logf("%-15s %-6s miss_ratio %.4f per-key top 2, %.4f top 4, %.4f demand-only, %.4f as the daemon plans",
				st.name, names[i], top2, top4, off, daemon[i])
		}
		best := slices.Min(daemon)
		for i, m := range daemon {
			worst[i] = max(worst[i], m-best)
		}
		if st.session > 1 && daemon[1] > daemon[0]-0.02 {
			t.Errorf("%s: slru½ misses %.4f of keys in the daemon's sessions against lru's %.4f — under 0.02 apart, the store's order no longer earns its place on the stream it was chosen for",
				st.name, daemon[1], daemon[0])
		}
	}
	for i, w := range worst {
		t.Logf("worst-case excess miss_ratio as the daemon plans: %-6s %.4f", names[i], w)
	}
	for i, w := range worst {
		if w < worst[1] {
			t.Errorf("%s strays at most %.4f from the best order on any stream, slru½ %.4f — the shipped order (store.New, the engine's default cache) is not the one of least regret",
				names[i], w, worst[1])
		}
	}
}
