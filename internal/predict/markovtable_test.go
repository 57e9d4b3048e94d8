package predict

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/offheap"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// markovTableRows is the whole table's ceiling.
const markovTableRows = predStripes * markovStripeRows

// eachMarkovRow calls fn on every used row, each stripe under its lock.
func eachMarkovRow(m *ConcurrentMarkov1, fn func(*markovRow)) {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		for j := range s.rows {
			if s.rows[j].total != 0 {
				fn(&s.rows[j])
			}
		}
		s.mu.Unlock()
	}
}

// seedMarkovRow plants key's row with the given successor counts, so a
// test can start from a state that would take 2³¹ calls to reach.
func seedMarkovRow(m *ConcurrentMarkov1, key cache.ID, succ []cache.ID, cnt []uint32) {
	h := hashID(key)
	s := &m.stripes[stripeOfHash(h)]
	s.mu.Lock()
	r := s.row(key, h)
	*r = markovRow{key: key, n: uint8(len(succ))}
	for i := range succ {
		r.succ[i], r.cnt[i] = succ[i], cnt[i]
		r.total += cnt[i]
	}
	s.mu.Unlock()
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestMarkovRowLayout pins what the memory bound rests on: a row is 112
// bytes with no pointer in it, and the full table fits 8 MiB.
func TestMarkovRowLayout(t *testing.T) {
	if hasPointers(reflect.TypeOf(markovRow{})) {
		t.Fatal("markovRow contains a pointer kind: the table would be GC-scanned")
	}
	if size := unsafe.Sizeof(markovRow{}); size != 112 {
		t.Fatalf("markovRow is %d bytes, want 112", size)
	}
	if markovTableRows != 65536 || markovTableRows*unsafe.Sizeof(markovRow{}) > 8<<20 {
		t.Fatalf("table ceiling %d rows × %d B exceeds 8 MiB", markovTableRows, unsafe.Sizeof(markovRow{}))
	}
}

// TestMarkovStripeLayout pins the padding that keeps each stripe's mutex
// on cache lines of its own, so neighbouring stripes locked from
// different goroutines do not false-share.
func TestMarkovStripeLayout(t *testing.T) {
	if size := unsafe.Sizeof(markovStripe{}); size%64 != 0 {
		t.Fatalf("markovStripe is %d bytes, not a whole number of 64-byte cache lines: adjust its padding", size)
	}
}

// TestConcurrentMarkov1Bounded shows the model a million distinct ids:
// the table stops at its ceiling; what it maps is exactly the rows its
// stripes hold, so every growth unmapped the rows it replaced; the heap
// grows by less than 512 KiB, since the rows live off it; and once at
// the ceiling a new id allocates nothing.
func TestConcurrentMarkov1Bounded(t *testing.T) {
	const ids = 1_000_000
	var before, after runtime.MemStats
	testutil.RunFinalizers(t) // no earlier test's table is unmapped in between
	runtime.ReadMemStats(&before)
	mapped := offheap.Mapped()
	m := NewConcurrentMarkov1()
	buf := make([]Prediction, 0, 4)
	for i := 0; i < ids; i++ {
		buf = m.ObserveAndPredictTopInto(cache.ID(i), 2, buf[:0])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	used := 0
	eachMarkovRow(m, func(*markovRow) { used++ })
	allocated := m.Rows()
	if allocated > markovTableRows {
		t.Fatalf("table holds %d rows, ceiling %d", allocated, markovTableRows)
	}
	if used < markovTableRows/2 {
		t.Fatalf("only %d of %d rows in use after %d distinct ids", used, allocated, ids)
	}
	if got, want := offheap.Mapped()-mapped, int64(allocated*rowBytes); got != want {
		t.Fatalf("the table maps %d bytes for %d rows of %d B (%d bytes): growth left old rows mapped", got, allocated, rowBytes, want)
	}
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); !raceEnabled && growth > 512<<10 {
		t.Fatalf("heap grew %d bytes over %d distinct ids, want <= 512 KiB: the rows belong off the heap", growth, ids)
	}
	next := ids
	allocs := testing.AllocsPerRun(1000, func() {
		buf = m.ObserveAndPredictTopInto(cache.ID(next), 2, buf[:0])
		next++
	})
	if allocs != 0 {
		t.Fatalf("a new id at the ceiling allocated %v times per call; want 0", allocs)
	}
}

// chainTop1 feeds n requests of wl through m and returns the share whose
// id was the model's first candidate going in.
func chainTop1(m *ConcurrentMarkov1, wl *workload.Markov, n int) float64 {
	var buf []Prediction
	hits := 0
	for i := 0; i < n; i++ {
		id := wl.Next()
		if len(buf) > 0 && buf[0].Item == id {
			hits++
		}
		buf = m.ObserveAndPredictTopInto(id, 1, buf[:0])
	}
	return float64(hits) / float64(n)
}

// TestConcurrentMarkov1ScanResistance trains on the benchmark's chain,
// pushes a million never-repeating ids through — enough to fill the
// table and replace rows sixteen times over — and asks the chain again:
// replacement takes the lightest row of a window, so the trained rows
// are all still there.
func TestConcurrentMarkov1ScanResistance(t *testing.T) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 2000, Fanout: 2}, rng.New(7))
	m := NewConcurrentMarkov1()
	chainTop1(m, wl, 200_000)
	if allocated := m.Rows(); allocated > 8192 {
		t.Fatalf("a 2000-state chain allocated %d rows, want <= 8192", allocated)
	}
	before := chainTop1(m, wl, 50_000)
	for i := 0; i < 1_000_000; i++ {
		m.ObserveAndPredictTopInto(cache.ID(1<<20+i), 2, nil)
	}
	after := chainTop1(m, wl, 50_000)
	if before < 0.5 {
		t.Fatalf("top-1 accuracy on the trained chain is %.4f; the model did not learn it", before)
	}
	if math.Abs(after-before) > 0.01 {
		t.Fatalf("top-1 accuracy %.4f before the scan, %.4f after; want within 0.01", before, after)
	}
}

// TestConcurrentMarkov1HeavyHitter: beyond markovSlots successors a row
// is an approximation, but not for the successors the threshold rule
// cares about — one at share >= 0.25 among many light ones is reported
// first throughout, at a probability close to its share.
func TestConcurrentMarkov1HeavyHitter(t *testing.T) {
	const (
		state       = cache.ID(1)
		hitter      = cache.ID(2)
		transitions = 20_000
	)
	for _, tc := range []struct {
		share  float64
		others int
	}{{0.25, 9}, {0.25, 40}, {0.4, 20}, {0.7, 500}} {
		src := rng.New(uint64(tc.others))
		m := NewConcurrentMarkov1()
		fed := 0
		for i := 0; i <= transitions; i++ {
			m.Observe(state)
			// The first few hundred counts are too few for any estimator
			// to rank reliably.
			if i >= 400 {
				got := m.PredictTop(1)
				if len(got) != 1 || got[0].Item != hitter {
					t.Fatalf("share %.2f among %d others: after %d transitions the first candidate is %+v, want item %d",
						tc.share, tc.others, i, got, hitter)
				}
				if fedShare := float64(fed) / float64(i); i == transitions && math.Abs(got[0].Prob-fedShare) > 0.05 {
					t.Fatalf("share %.2f among %d others: p̂ = %.4f, fed share %.4f; want within 0.05",
						tc.share, tc.others, got[0].Prob, fedShare)
				}
			}
			next := cache.ID(100 + src.Intn(tc.others))
			if rng.Bernoulli(src, tc.share) {
				next = hitter
				fed++
			}
			m.Observe(next)
		}
	}
}

// TestMarkovRowHalving seeds a row just short of the halving point: the
// 32-bit counters must never wrap, the slots must not outgrow the
// total, the row's probabilities must come through unchanged, and a
// successor whose count halves to zero is no longer predicted.
func TestMarkovRowHalving(t *testing.T) {
	const state, a, b, c = 1, 2, 3, 4
	m := NewConcurrentMarkov1()
	seedMarkovRow(m, state, []cache.ID{a, b, c}, []uint32{markovHalveAt/4*3 - 4, markovHalveAt / 4, 1})
	want := m.topOf(state, nil, 2)
	for i := 0; i < 8; i++ {
		m.Observe(state)
		m.Observe(a)
	}
	var row markovRow
	eachMarkovRow(m, func(r *markovRow) {
		if r.key == state {
			row = *r
		}
	})
	if row.total >= markovHalveAt || row.total < markovHalveAt/2 {
		t.Fatalf("total %d after crossing the halving point, want in [%d, %d)", row.total, markovHalveAt/2, markovHalveAt)
	}
	if sum := row.cnt[0] + row.cnt[1] + row.cnt[2]; row.n != 3 || sum > row.total {
		t.Fatalf("slots sum to %d over %d successors, total %d", sum, row.n, row.total)
	}
	got := m.topOf(state, nil, 3)
	if len(got) != len(want) {
		t.Fatalf("after halving the row predicts %+v, want only the two successors with a count left", got)
	}
	for i := range want {
		if got[i].Item != want[i].Item || math.Abs(got[i].Prob-want[i].Prob) > 1e-6 {
			t.Fatalf("after halving candidate %d = %+v, before %+v", i, got[i], want[i])
		}
	}
}

// BenchmarkConcurrentMarkov1Scan is the table at its ceiling under ids
// that never repeat: every call replaces a row and finds none for the
// id it predicts from. The table is filled before the timer starts, so
// B/op reads the steady state: 0.
func BenchmarkConcurrentMarkov1Scan(b *testing.B) {
	m := NewConcurrentMarkov1()
	var next atomic.Int64
	for next.Load() < 1<<20 {
		m.Observe(cache.ID(next.Add(1)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]Prediction, 0, 4)
		for pb.Next() {
			buf = m.ObserveAndPredictTopInto(cache.ID(next.Add(1)), 2, buf[:0])
		}
	})
}

// top1Scorer wraps one model for TestNoReferenceBeatsMarkov: observe
// returns the model's first candidate for the request after id.
type top1Scorer struct {
	name    string
	observe func(id cache.ID) (cache.ID, bool)
}

// referenceScorer scores a sequential reference the way the engine would
// drive it as a plugin: Observe, then the best form of top-1 it offers.
func referenceScorer(p Predictor) top1Scorer {
	return top1Scorer{p.Name(), func(id cache.ID) (cache.ID, bool) {
		p.Observe(id)
		var top []Prediction
		if tp, ok := p.(TopPredictor); ok {
			top = tp.PredictTop(1)
		} else {
			top = p.Predict()
		}
		if len(top) == 0 {
			return 0, false
		}
		return top[0].Item, true
	}}
}

// TestNoReferenceBeatsMarkov keeps ROADMAP item 6(d)'s decision
// reproducible: the engine ships the bounded Markov table and no other
// model because none predicts the next request better on the streams
// the benchmark runs. It drives ConcurrentMarkov1 the planner's way
// (ObserveAndPredictTopInto(id, 2)) and every sequential reference over
// the chain-obj generator and one pass of the recorded trace1k fixture
// (one pass: a recording replayed in a loop is exactly periodic, which
// scores how well a model memorises the recording — a longer context
// wins by construction — not how well it predicts), logs top-1 per
// model, and fails if a reference beats markov by more
// than 0.01 on either stream — the day someone improves a reference
// enough to earn daemon surface, this says so.
func TestNoReferenceBeatsMarkov(t *testing.T) {
	if testing.Short() {
		t.Skip("model comparison: eight models over a 20k-request stream")
	}
	const n = 20_000
	chain := make([]cache.ID, n)
	wl := workload.NewMarkov(workload.MarkovConfig{N: 2000, Fanout: 2, Decay: 0.15, Restart: 0.03},
		rng.NewStream(1, "chain-obj"))
	for i := range chain {
		chain[i] = wl.Next()
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

	for _, stream := range []struct {
		name string
		ids  []cache.ID
	}{{"chain-obj", chain}, {"trace1k", trace}} {
		m := NewConcurrentMarkov1()
		buf := make([]Prediction, 0, 2)
		scorers := []top1Scorer{{"markov (concurrent, bounded)", func(id cache.ID) (cache.ID, bool) {
			buf = m.ObserveAndPredictTopInto(id, 2, buf[:0])
			if len(buf) == 0 {
				return 0, false
			}
			return buf[0].Item, true
		}}}
		for _, ref := range []Predictor{NewMarkov1(), NewPPM(2), NewPPM(3),
			NewDependencyGraph(2), NewDependencyGraph(4), NewLZ78(), NewPopularity(1)} {
			scorers = append(scorers, referenceScorer(ref))
		}
		var markov float64
		for i, sc := range scorers {
			hits := 0
			guess, ok := cache.ID(0), false
			for _, id := range stream.ids {
				if ok && guess == id {
					hits++
				}
				guess, ok = sc.observe(id)
			}
			top1 := float64(hits) / float64(len(stream.ids))
			t.Logf("%-9s %-28s top-1 %.4f", stream.name, sc.name, top1)
			if i == 0 {
				markov = top1
			} else if top1 > markov+0.01 {
				t.Errorf("%s: %s reads top-1 %.4f against markov's %.4f — a model that beats the bounded table by more than 0.01 has a claim to daemon surface (ROADMAP item 6(d))",
					stream.name, sc.name, top1, markov)
			}
		}
	}
}
