package cache_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/prefetcher"
)

// decisionStreams are the key streams the replacement-policy decision
// is judged on: the four BENCHMARK.json workloads' generators at the
// entry counts their daemons run (scan-miss at what its byte budget
// holds: 8 MiB of 16 KiB payloads), and one pass of the recorded trace1k
// fixture at two cache sizes.
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
		{"hot-obj/4096", hot, 4096}, {"chain-obj/512", chain, 512}, {"page-batch/512", pages, 512},
		{"scan-miss/511", scan, 511}, {"trace1k/32", trace, 32}, {"trace1k/8", trace, 8},
	}
}

type decisionStream struct {
	name     string
	ids      []cache.ID
	capacity int
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

// missRatio replays ids through store. With k > 0 it speculates after
// each request: the bounded Markov table observes the id and its top k
// successors are admitted if they are not resident (on these streams the
// link's ρ̂′ sits below the successors' p̂, so the threshold rule admits
// them). That approximates the daemon, not more: the engine caps a
// request's plan at 4 (WithMaxPrefetch's default), and /batch plans once
// per session, from its last id.
func missRatio(ids []cache.ID, store replayer, k int) float64 {
	model := predict.NewConcurrentMarkov1()
	buf := make([]predict.Prediction, 0, k)
	hits := 0
	for _, id := range ids {
		if store.Access(id) {
			hits++
		} else {
			store.Admit(id)
		}
		if k == 0 {
			continue
		}
		buf = model.ObserveAndPredictTopInto(id, k, buf[:0])
		for _, p := range buf {
			if !store.Contains(p.Item) {
				store.Admit(p.Item)
			}
		}
	}
	return 1 - float64(hits)/float64(len(ids))
}

// TestNoPolicyBeatsLRUWithSpeculationOn keeps ROADMAP item 4(i)'s
// decision reproducible: the byte store ships LRU and no other
// replacement policy because, with speculation on — the configuration
// prefetchd and every benchmark workload run — none misses less on the
// streams the benchmark runs. It replays each stream through every
// policy in this package, and through NewSLRUCache's segmented LRU with
// half the entries protected, three times: with the Markov top 2
// prefetched into the store after every request, with the top 4 (the
// engine's default cap), and demand-only. It logs all three columns and
// fails if any policy beats LRU by more than 0.01 miss_ratio in the
// top-2 column, or in the top-4 column on the four BENCHMARK.json
// streams (on trace1k/8 FIFO, Clock and SLRU beat LRU there, so its
// top-4 column is logged, not gated). So is the demand-only column, what
// a `policy: none` space gives up (LFU does beat LRU there).
func TestNoPolicyBeatsLRUWithSpeculationOn(t *testing.T) {
	policy := func(p func() cache.Policy) func(int) (string, replayer) {
		return func(capacity int) (string, replayer) {
			s := cache.NewStore(capacity, p())
			return s.PolicyName(), s
		}
	}
	// lru first: the others are read against it.
	stores := []func(capacity int) (string, replayer){
		policy(func() cache.Policy { return cache.NewLRU() }),
		policy(func() cache.Policy { return cache.NewFIFO() }),
		policy(func() cache.Policy { return cache.NewLFU() }),
		policy(func() cache.Policy { return cache.NewClock() }),
		func(capacity int) (string, replayer) {
			return "slru", slruStore{prefetcher.NewSLRUCache(capacity, capacity/2)}
		},
		policy(func() cache.Policy { return cache.NewRandomPolicy(rng.NewStream(1, "random-policy")) }),
	}
	for _, st := range decisionStreams(t) {
		gateTop4 := !strings.HasPrefix(st.name, "trace1k/")
		var lru, lru4 float64
		for i, mk := range stores {
			name, s := mk(st.capacity)
			on := missRatio(st.ids, s, 2)
			_, s = mk(st.capacity)
			top4 := missRatio(st.ids, s, 4)
			_, s = mk(st.capacity)
			off := missRatio(st.ids, s, 0)
			t.Logf("%-15s %-6s miss_ratio %.4f speculating top 2, %.4f top 4, %.4f demand-only", st.name, name, on, top4, off)
			if i == 0 {
				lru, lru4 = on, top4
				continue
			}
			if on < lru-0.01 {
				t.Errorf("%s: %s misses %.4f of requests speculating top 2 against lru's %.4f — a policy that beats LRU by more than 0.01 on the shipped configuration has a claim to the byte store (ROADMAP item 4)",
					st.name, name, on, lru)
			}
			if gateTop4 && top4 < lru4-0.01 {
				t.Errorf("%s: %s misses %.4f of requests speculating top 4 against lru's %.4f — a policy that beats LRU by more than 0.01 on the shipped configuration has a claim to the byte store (ROADMAP item 4)",
					st.name, name, top4, lru4)
			}
		}
	}
}
