package prefetcher

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/prefetcher/fetch"
)

// chainAdmissionDigest is the digest chainAdmissionTrace leaves, with
// either construction of its one backend: 1,884 ids issued since the
// Markov table ranks and admits on Good–Turing adjusted counts (1,937
// and f1069673272f3c91 on raw counts).
const chainAdmissionDigest = "c5426d1921b91a76"

// chainAdmissionTrace replays a seeded Markov chain through an engine
// on a ManualClock and returns a digest of each request's issued ids, in
// event order, with their count. Every node has two successors, the
// likelier drawn from [0.7, 0.98), so the adaptive rule's p > ρ̂′ admits
// both or one as ρ̂′ moves. The trace runs in three phases: 400 requests
// at 20/s, 400 at 100/s, then 1000 at one instant, which lift the
// link's ρ̂′ past the less likely successors. The fetcher must batch: a
// plan is then one job, deduplicated whole before it is pushed, so no
// landing races the plan's own dedup.
func chainAdmissionTrace(t *testing.T, fetcher Fetcher, construct ...Option) (digest string, issued int) {
	t.Helper()
	const (
		nodes, seed = 48, 7
		bandwidth   = 200
	)
	rng := rand.New(rand.NewSource(seed))
	type succ struct {
		next [2]ID
		p    float64
	}
	chain := make([]succ, nodes)
	for i := range chain {
		chain[i] = succ{next: [2]ID{ID((i + 1) % nodes), ID(rng.Intn(nodes))}, p: 0.7 + 0.28*rng.Float64()}
	}

	var (
		mu     sync.Mutex
		events []Event
	)
	clock := NewManualClock(time.Unix(0, 0))
	eng, err := New(fetcher, append(construct,
		WithBandwidth(bandwidth),
		WithClock(clock),
		WithCache(NewLRUCache(16)),
		WithWorkers(1),
		WithEventHook(func(ev Event) {
			if ev.Type == EventPrefetchIssued {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	h := fnv.New64a()
	ctx := context.Background()
	id := ID(0)
	for i := 0; i < 1800; i++ {
		if i%10 == 9 {
			_, err = eng.GetMulti(ctx, []ID{id, chain[id].next[0]})
		} else {
			_, err = eng.Get(ctx, id)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		fmt.Fprintf(h, "%d:", i)
		for _, ev := range events {
			issued++
			fmt.Fprintf(h, "i%d,", ev.ID)
		}
		events = events[:0]
		mu.Unlock()
		switch {
		case i < 400:
			clock.AdvanceSeconds(0.05)
		case i < 800:
			clock.AdvanceSeconds(0.01)
		}
		if s := chain[id]; rng.Float64() < s.p {
			id = s.next[0]
		} else {
			id = s.next[1]
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), issued
}

// TestChainAdmissionDigest pins what the admission pass decides on a
// seeded chain, request by request: the ids each request issued, in
// event order, through New(fetcher) and through WithBackends with the
// same one backend.
func TestChainAdmissionDigest(t *testing.T) {
	plain, issued := chainAdmissionTrace(t, &batchBackend{})
	named, _ := chainAdmissionTrace(t, nil, WithBackends(fetch.Backend{Name: "origin", Fetcher: &batchBackend{}, Bandwidth: 200}))
	if plain != named {
		t.Fatalf("constructions diverge: New(f) %s, WithBackends %s", plain, named)
	}
	if issued == 0 {
		t.Fatalf("trace too tame to pin anything: %d issued", issued)
	}
	if plain != chainAdmissionDigest {
		t.Fatalf("digest %s, want %s", plain, chainAdmissionDigest)
	}
}

// fixedPredictor answers every request with the candidates the test
// set last, so that a test can place p exactly against the threshold —
// all of them, however many the engine asks for, so a plan longer than
// k exercises the engine's truncation. preds is written only between
// requests, on the goroutine that makes them, so it needs no lock.
type fixedPredictor struct{ preds []Prediction }

func (p *fixedPredictor) Observe(ID)   {}
func (p *fixedPredictor) Name() string { return "fixed" }

func (p *fixedPredictor) PredictTopInto(dst []Prediction, k int) []Prediction {
	return append(dst, p.preds...)
}

// TestAdmissionEdgeAtFabricRhoPrime places candidates a hair either side
// of the fabric's demand-only ρ̂′ on a ManualClock at a configured b: the
// one just above is dispatched, the one just below is not. With two
// backends the fabric's ρ̂′ is the bandwidth-weighted mean of two links
// that read on either side of it, and the plan is routed, whole, to the
// idle link of larger b, whose own ρ̂′ would have refused the candidate
// just above. A plan with more candidates than maxPrefetch then keeps
// the two most probable.
func TestAdmissionEdgeAtFabricRhoPrime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		backends []fetch.Backend
	}{
		{"one", []fetch.Backend{{Name: "origin", Fetcher: &okBackend{}, Bandwidth: 1000}}},
		// One miss at a time finds both links idle, and each goes to
		// the one of larger b: 200 misses/s read ρ̂′ ≈ 0.067 on fast, 0
		// on slow, 0.05 for the fabric.
		{"two", []fetch.Backend{
			{Name: "slow", Fetcher: &okBackend{}, Bandwidth: 1000},
			{Name: "fast", Fetcher: &okBackend{}, Bandwidth: 3000},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewManualClock(time.Unix(0, 0))
			pred := &fixedPredictor{}
			var (
				mu     sync.Mutex
				issued []ID
			)
			eng, err := New(nil,
				WithBandwidth(1000),
				WithClock(clock),
				WithPredictor(pred),
				WithMaxPrefetch(2),
				WithCache(NewLRUCache(1024)),
				WithBackends(tc.backends...),
				WithEventHook(func(ev Event) {
					if ev.Type == EventPrefetchIssued {
						mu.Lock()
						issued = append(issued, ev.ID)
						mu.Unlock()
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			for i := 0; i < 400; i++ { // demand misses only: the predictor is silent
				clock.AdvanceSeconds(0.005)
				if _, err := eng.Get(ctx, ID(i)); err != nil {
					t.Fatal(err)
				}
			}

			// The clock stands still from here on and every request hits,
			// so no link's ρ̂′ moves: what Stats reads is what the pass reads.
			before := eng.Stats()
			var load, bw float64
			for _, b := range before.Backends {
				load += b.Bandwidth * b.RhoPrime
				bw += b.Bandwidth
			}
			rho := load / bw
			const eps = 1e-9
			if rho < 0.01 {
				t.Fatalf("fabric ρ̂′ %v: the warm-up left the rule nothing to decide", rho)
			}
			route := eng.fabric.Route()
			if last := len(before.Backends) - 1; last > 0 && (before.Backends[route].RhoPrime <= rho+eps || before.Backends[last-route].RhoPrime >= rho-eps) {
				t.Fatalf("links must read either side of the fabric's ρ̂′ %v, the routed one (%d) above: %+v", rho, route, before.Backends)
			}
			// request serves a resident id with the predictor answering
			// preds and returns the ids the pass issued and each backend's
			// speculative fetches.
			request := func(id ID, preds ...Prediction) ([]ID, []int64) {
				t.Helper()
				pred.preds = preds
				base := eng.Stats()
				mu.Lock()
				issued = issued[:0]
				mu.Unlock()
				if _, err := eng.Get(ctx, id); err != nil {
					t.Fatal(err)
				}
				if err := eng.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
				st := eng.Stats()
				if st.Hits != base.Hits+1 {
					t.Fatalf("Get(%d) missed", id)
				}
				spec := make([]int64, len(st.Backends))
				for i, b := range st.Backends {
					spec[i] = b.Speculative - base.Backends[i].Speculative
				}
				mu.Lock()
				defer mu.Unlock()
				return append([]ID(nil), issued...), spec
			}

			// Just above and just below, neither resident.
			const above, below = 1_000_000, 2_000_000
			got, spec := request(399, Prediction{ID: above, Prob: rho + eps}, Prediction{ID: below, Prob: rho - eps})
			want := make([]int64, len(spec))
			want[route]++
			if len(got) != 1 || got[0] != above || !slices.Equal(spec, want) {
				t.Fatalf("fabric ρ̂′ %v: issued %v (speculative per backend %v), want only %d (p just above) on backend %d, not %d (p just below)",
					rho, got, spec, above, route, below)
			}

			// Four candidates over the threshold: one pass keeps the
			// likeliest two.
			top := []ID{3_000_000, 4_000_000, 5_000_000, 6_000_000}
			got, spec = request(398,
				Prediction{ID: top[0], Prob: 0.9}, Prediction{ID: top[1], Prob: 0.8},
				Prediction{ID: top[2], Prob: 0.7}, Prediction{ID: top[3], Prob: 0.6})
			if len(got) != 2 || got[0] != top[0] || got[1] != top[1] {
				t.Fatalf("issued %v, want the two most probable %v", got, top[:2])
			}
			want[route] = 2
			if !slices.Equal(spec, want) {
				t.Fatalf("speculative fetches per backend %v, want %v", spec, want)
			}
			quiesceAndCheck(t, eng)
		})
	}
}
