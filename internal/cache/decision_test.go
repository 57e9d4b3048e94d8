package cache_test

import (
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/workload"
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

// missRatio replays ids through a Store of the given policy. With k > 0
// it speculates after each request: the bounded Markov table observes
// the id and its top k successors are admitted if they are not resident
// (on these streams the link's ρ̂′ sits below the successors' p̂, so the
// threshold rule admits them). That approximates the daemon, not more:
// the engine caps a request's plan at 4 (WithMaxPrefetch's default),
// and /batch plans once per session, from its last id.
func missRatio(ids []cache.ID, capacity int, policy cache.Policy, k int) float64 {
	store := cache.NewStore(capacity, policy)
	model := predict.NewConcurrentMarkov1()
	buf := make([]predict.Prediction, 0, k)
	for _, id := range ids {
		if !store.Access(id) {
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
	return 1 - store.HitRatio()
}

// TestNoPolicyBeatsLRUWithSpeculationOn keeps ROADMAP item 4(i)'s
// decision reproducible: the byte store ships LRU and no other
// replacement policy because, with speculation on — the configuration
// prefetchd and every benchmark workload run — none misses less on the
// streams the benchmark runs. It replays each stream through every
// policy in this package three times: with the Markov top 2 prefetched
// into the store after every request, with the top 4 (the engine's
// default cap), and demand-only. It logs all three columns and fails if
// any policy beats LRU by more than 0.01 miss_ratio in the top-2 column.
// The top-4 column is logged, not gated (on trace1k/8 FIFO, Clock and
// SLRU beat LRU there); so is the demand-only column, what a
// `policy: none` space gives up (LFU does beat LRU there).
func TestNoPolicyBeatsLRUWithSpeculationOn(t *testing.T) {
	// lru first: the others are read against it.
	policies := []func(capacity int) cache.Policy{
		func(int) cache.Policy { return cache.NewLRU() },
		func(int) cache.Policy { return cache.NewFIFO() },
		func(int) cache.Policy { return cache.NewLFU() },
		func(int) cache.Policy { return cache.NewClock() },
		func(capacity int) cache.Policy { return cache.NewSLRU(capacity / 2) },
		func(int) cache.Policy { return cache.NewRandomPolicy(rng.NewStream(1, "random-policy")) },
	}
	for _, st := range decisionStreams(t) {
		var lru float64
		for i, mk := range policies {
			name := mk(st.capacity).Name()
			on := missRatio(st.ids, st.capacity, mk(st.capacity), 2)
			top4 := missRatio(st.ids, st.capacity, mk(st.capacity), 4)
			off := missRatio(st.ids, st.capacity, mk(st.capacity), 0)
			t.Logf("%-15s %-6s miss_ratio %.4f speculating top 2, %.4f top 4, %.4f demand-only", st.name, name, on, top4, off)
			if i == 0 {
				lru = on
			} else if on < lru-0.01 {
				t.Errorf("%s: %s misses %.4f of requests with speculation on against lru's %.4f — a policy that beats LRU by more than 0.01 on the shipped configuration has a claim to the byte store (ROADMAP item 4)",
					st.name, name, on, lru)
			}
		}
	}
}
