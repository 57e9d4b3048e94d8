package prefetcher

import (
	"context"
	"sync"
	"testing"
)

// concurrentProbe is an external Predictor that takes its own lock, as
// the contract asks of a model that is not concurrent inside: it logs
// every observation and, after each, names one id no request asks for,
// fresh per call, with certainty — so every request plans a speculative
// fetch. Stats.Predictor and a clean -race run show it was driven
// through the plugin arm with no engine lock around it.
type concurrentProbe struct {
	mu    sync.Mutex
	obs   []ID
	named int // ids named so far
}

// probeBase is where concurrentProbe's named ids start, above every id
// the test requests.
const probeBase = 1 << 20

func (p *concurrentProbe) Observe(id ID) {
	p.mu.Lock()
	p.obs = append(p.obs, id)
	p.mu.Unlock()
}

func (p *concurrentProbe) PredictTopInto(dst []Prediction, k int) []Prediction {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.named++
	return append(dst, Prediction{ID: ID(probeBase + p.named), Prob: 1})
}

func (p *concurrentProbe) Name() string { return "external-concurrent" }

// seqModel is a first-order model with deliberately unsynchronised
// state, the shape a plugin written as a sequential model has: a
// transition map and a current-state field, no locking at all. It
// answers its most frequent successor and records the k of every ask.
type seqModel struct {
	counts map[ID]map[ID]int
	cur    ID
	seen   bool

	observes, predicts int
	minK, maxK         int
}

func (m *seqModel) Observe(id ID) {
	m.observes++
	if m.seen {
		row := m.counts[m.cur]
		if row == nil {
			row = make(map[ID]int)
			m.counts[m.cur] = row
		}
		row[id]++
	}
	m.cur, m.seen = id, true
}

func (m *seqModel) PredictTopInto(dst []Prediction, k int) []Prediction {
	m.predicts++
	if m.predicts == 1 || k < m.minK {
		m.minK = k
	}
	m.maxK = max(m.maxK, k)
	row := m.counts[m.cur]
	total, best, bestC := 0, ID(0), 0
	for id, c := range row {
		total += c
		if c > bestC || (c == bestC && id < best) {
			best, bestC = id, c
		}
	}
	if total == 0 {
		return dst
	}
	return append(dst, Prediction{ID: best, Prob: float64(bestC) / float64(total)})
}

// lockedSeq is how a sequential model meets the contract: its author
// puts one lock around every call.
type lockedSeq struct {
	mu sync.Mutex
	m  *seqModel
}

func (p *lockedSeq) Observe(id ID) {
	p.mu.Lock()
	p.m.Observe(id)
	p.mu.Unlock()
}

func (p *lockedSeq) PredictTopInto(dst []Prediction, k int) []Prediction {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.PredictTopInto(dst, k)
}

func (p *lockedSeq) Name() string { return "external-seq" }

// TestExternalPredictorCompatibilityPath is the round trip of a plugin
// written as a sequential model and kept compatible by a lock of its
// own, under -race: eight goroutines of overlapping Gets over four
// shards, on 200 ids that the 4x16-entry cache cannot hold. The model
// must see one observation per request, be asked for between 1 and
// WithMaxPrefetch candidates each time, and its answers must become
// prefetches.
func TestExternalPredictorCompatibilityPath(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	model := &seqModel{counts: make(map[ID]map[ID]int)}
	eng, err := New(fetcher,
		WithPredictor(&lockedSeq{m: model}),
		WithPolicy(StaticThreshold(0.1)),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(16) }),
		WithWorkers(4),
		WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	const workers, iters = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.Get(ctx, ID((w*31+i)%200)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	quiesceAndCheck(t, eng)

	st := eng.Stats()
	if st.Predictor != "external-seq" {
		t.Fatalf("Stats.Predictor = %q, want external-seq", st.Predictor)
	}
	if model.observes != int(st.Requests) || st.Requests != workers*iters {
		t.Fatalf("observes = %d, requests = %d; want one per request (%d)", model.observes, st.Requests, workers*iters)
	}
	if model.predicts == 0 {
		t.Fatal("PredictTopInto was never dispatched")
	}
	if model.minK < 1 || model.maxK > 2 {
		t.Fatalf("asked for k in [%d, %d]; want within [1, 2] (WithMaxPrefetch)", model.minK, model.maxK)
	}
	if st.PrefetchIssued == 0 {
		t.Fatal("the model's predictions never produced a prefetch")
	}
}

// TestPluginPredictorConcurrentSessions is the plugin arm's -race test.
// Eight goroutines run GetMulti sessions of four consecutive ids over
// four shards, every session on ids of its own, against a plugin the
// engine calls with no lock of its own. Every id must be observed
// exactly once, each session's ids in order (other sessions' ids may
// fall between them), and the plugin's candidates must be dispatched and
// land.
func TestPluginPredictorConcurrentSessions(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	pred := &concurrentProbe{}
	var (
		mu           sync.Mutex
		issued, done int
		foreign      []ID // prefetched ids below probeBase, which no plugin answer holds
	)
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithPredictor(pred),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }),
		WithWorkers(4),
		WithMaxPrefetch(2),
		WithEventHook(func(ev Event) {
			if ev.Type != EventPrefetchIssued && ev.Type != EventPrefetchDone {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if ev.ID < probeBase {
				foreign = append(foreign, ev.ID)
			} else if ev.Type == EventPrefetchIssued {
				issued++
			} else {
				done++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const workers, sessions, fanout = 8, 100, 4
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]ID, fanout)
			for s := 0; s < sessions; s++ {
				for k := range ids {
					ids[k] = ID((w*sessions+s)*fanout + k)
				}
				if _, err := eng.GetMulti(ctx, ids); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	quiesceAndCheck(t, eng)

	if st := eng.Stats(); st.Predictor != "external-concurrent" {
		t.Fatalf("Stats.Predictor = %q, want external-concurrent", st.Predictor)
	}
	pred.mu.Lock()
	obs := append([]ID(nil), pred.obs...)
	pred.mu.Unlock()
	const n = workers * sessions * fanout
	if len(obs) != n {
		t.Fatalf("observed %d ids, want %d", len(obs), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, id := range obs {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("observation %d is id %d: out of range or observed twice", i, id)
		}
		pos[id], seen[id] = i, true
	}
	for id := 0; id < n; id++ {
		if id%fanout != 0 && pos[id] < pos[id-1] {
			t.Fatalf("id %d observed at %d, before id %d of its session at %d", id, pos[id], id-1, pos[id-1])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(foreign) > 0 {
		t.Fatalf("prefetched ids the plugin never named: %v", foreign)
	}
	if issued == 0 || done == 0 {
		t.Fatalf("the plugin's candidates were issued %d times and landed %d times; want both > 0", issued, done)
	}
}

// TestBuiltinPredictorPaths pins which arm of the planner New picks:
// the built-in model, given by NewMarkovPredictor or left as the
// default, is unwrapped and called directly; anything else is a plugin.
func TestBuiltinPredictorPaths(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	for _, tc := range []struct {
		name    string
		opts    []Option
		builtin bool
		want    string
	}{
		{"default", nil, true, "markov1"},
		{"markov", []Option{WithPredictor(NewMarkovPredictor())}, true, "markov1"},
		{"plugin", []Option{WithPredictor(&concurrentProbe{})}, false, "external-concurrent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(fetcher, append([]Option{WithBandwidth(100)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Get(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if got := eng.planner.builtin != nil; got != tc.builtin || got == (eng.planner.plugin != nil) {
				t.Fatalf("planner %+v: built-in arm %v, want %v", eng.planner, got, tc.builtin)
			}
			if got := eng.Stats().Predictor; got != tc.want {
				t.Fatalf("Stats.Predictor = %q, want %q", got, tc.want)
			}
		})
	}
}
