package predict

import (
	"fmt"
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

// checkMarkovTable audits every stripe of m under its lock: trained
// counts exactly the rows with total >= 2, the used rows of each window
// are a prefix of it and belong to keys that hash there, and the stripe
// is within its ceiling. Then, m being quiescent, each N_r of its
// count-of-counts must equal a recount of the slots holding r.
func checkMarkovTable(t testing.TB, m *ConcurrentMarkov1) {
	t.Helper()
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		err := auditStripe(s)
		s.mu.Unlock()
		if err != "" {
			t.Fatalf("stripe %d: %s", i, err)
		}
	}
	var recount [gtCounts]int64
	eachMarkovRow(m, func(r *markovRow) {
		for _, c := range r.cnt[:r.n] {
			if c-1 < gtCounts {
				recount[c-1]++
			}
		}
	})
	for i := range recount {
		if got := m.cc[i].Load(); got != recount[i] {
			t.Fatalf("N_%d = %d, but %d slots hold count %d", i+1, got, recount[i], i+1)
		}
	}
}

// auditStripe is checkMarkovTable's check of one locked stripe; it
// returns what is wrong, or "".
func auditStripe(s *markovStripe) string {
	if len(s.rows) > markovStripeRows {
		return fmt.Sprintf("%d rows, ceiling %d", len(s.rows), markovStripeRows)
	}
	trained := 0
	for w := 0; w < len(s.rows); w += markovWays {
		gap := false
		for j := w; j < w+markovWays; j++ {
			r := &s.rows[j]
			switch {
			case r.total == 0:
				gap = true
			case gap:
				return fmt.Sprintf("row %d is used after an unused row of its window", j)
			case &s.window(hashID(r.key))[0] != &s.rows[w]:
				return fmt.Sprintf("row %d holds key %d outside the key's window", j, r.key)
			case r.total >= 2:
				trained++
			}
		}
	}
	if trained != s.trained {
		return fmt.Sprintf("trained = %d, but %d rows have a total of 2 or more", s.trained, trained)
	}
	return ""
}

// seedMarkovRow plants key's row, which must be new, with the given
// successor counts, so a test can start from a state that would take
// 2³¹ calls to reach.
func seedMarkovRow(m *ConcurrentMarkov1, key cache.ID, succ []cache.ID, cnt []uint32) {
	h := hashID(key)
	s := &m.stripes[stripeOfHash(h)]
	s.mu.Lock()
	var d countMoves
	r := s.row(key, h, &d)
	*r = markovRow{key: key, n: uint8(len(succ))}
	for i := range succ {
		r.succ[i], r.cnt[i] = succ[i], cnt[i]
		r.total += cnt[i]
		d.move(0, cnt[i])
	}
	if r.total >= 2 {
		s.trained++
	}
	s.mu.Unlock()
	m.cc.add(&d)
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
// different goroutines do not false-share, and the count-of-counts on
// the table's last line, alone.
func TestMarkovStripeLayout(t *testing.T) {
	if size := unsafe.Sizeof(markovStripe{}); size%64 != 0 {
		t.Fatalf("markovStripe is %d bytes, not a whole number of 64-byte cache lines: adjust its padding", size)
	}
	var m ConcurrentMarkov1
	if at, size := unsafe.Offsetof(m.cc), unsafe.Sizeof(m); at%64 != 0 || size-at != 64 || at < unsafe.Offsetof(m.cur)+64 {
		t.Fatalf("the count-of-counts sits at byte %d of %d, cur at %d: want it on a 64-byte line of its own", at, size, unsafe.Offsetof(m.cur))
	}
}

// TestConcurrentMarkov1Bounded shows the model a million distinct ids,
// then half a million more each observed twice (0,0,1,1,2,2,…). Seen
// once, an id trains nothing, so the first phase leaves one window per
// stripe; seen twice, every id trains its row, and the second phase
// takes the table to its ceiling and holds it there. After each phase
// what the table maps is exactly the rows its stripes hold, so every
// growth unmapped the rows it replaced. The heap grows by less than
// 512 KiB, since the rows live off it, and once at the ceiling a new id
// allocates nothing.
func TestConcurrentMarkov1Bounded(t *testing.T) {
	const ids, twice = 1_000_000, 500_000
	var before, after runtime.MemStats
	testutil.RunFinalizers(t) // no earlier test's table is unmapped in between
	runtime.ReadMemStats(&before)
	mapped := offheap.Mapped()
	m := NewConcurrentMarkov1()
	buf := make([]Prediction, 0, 4)
	holds := func(phase string, want int) {
		t.Helper()
		if got := m.Rows(); got != want {
			t.Fatalf("after %s the table holds %d rows, want %d", phase, got, want)
		}
		if got, want := offheap.Mapped()-mapped, int64(want*rowBytes); got != want {
			t.Fatalf("after %s the table maps %d bytes for rows of %d B (%d bytes): growth left old rows mapped", phase, got, rowBytes, want)
		}
	}
	for i := 0; i < ids; i++ {
		buf = m.ObserveAndPredictTopInto(cache.ID(i), 2, buf[:0])
	}
	holds("a million distinct ids", predStripes*markovWays)
	for i := ids; i < ids+twice; i++ {
		m.Observe(cache.ID(i))
		buf = m.ObserveAndPredictTopInto(cache.ID(i), 2, buf[:0])
	}
	holds("ids seen twice", markovTableRows)
	runtime.GC()
	runtime.ReadMemStats(&after)

	used := 0
	eachMarkovRow(m, func(*markovRow) { used++ })
	if used < markovTableRows/2 {
		t.Fatalf("only %d of %d rows in use after %d ids seen twice", used, markovTableRows, twice)
	}
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); !raceEnabled && growth > 512<<10 {
		t.Fatalf("heap grew %d bytes over %d ids, want <= 512 KiB: the rows belong off the heap", growth, ids+twice)
	}
	next := ids + twice
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(cache.ID(next))
		buf = m.ObserveAndPredictTopInto(cache.ID(next), 2, buf[:0])
		next++
	})
	if allocs != 0 {
		t.Fatalf("a new id at the ceiling allocated %v times per call; want 0", allocs)
	}
	holds("new ids at the ceiling", markovTableRows)
	checkMarkovTable(t, m)
}

// TestMarkovUpkeepAllocFree gates the table's rare paths, which the
// per-request gates pass through too seldom to see one allocation: a
// row halving its counts (at a total of markovHalveAt), and a stripe
// growing, its rows moved to a new mapping outside the Go heap and the
// old one freed. Neither allocates on the Go heap (where rows are mapped
// with mmap: not under -race, nor off unix): every allocation of 100
// halvings and of 6 grows is counted, not their integer mean.
func TestMarkovUpkeepAllocFree(t *testing.T) {
	var r markovRow
	var d countMoves
	halve := func() {
		r.total, r.n = markovHalveAt, markovSlots
		for i := range r.cnt {
			r.cnt[i] = uint32(i + 1)
		}
		r.count(cache.ID(1), &d)
	}
	testutil.AllocsInPhase(t, 0, "halving a row 100 times", halve, func() {
		for i := 0; i < 100; i++ {
			halve()
		}
	})
	if raceEnabled {
		t.Skip("under -race internal/offheap maps rows with make, one allocation a grow")
	}
	var s markovStripe
	s.grow()
	s.row(cache.ID(1), hashID(cache.ID(1)), &d).count(cache.ID(2), &d)
	testutil.AllocsInPhase(t, 0, "growing a stripe 6 times", s.grow, func() {
		for i := 0; i < 6; i++ {
			s.grow()
		}
	})
	if got := len(s.rows); got != markovWays<<7 {
		t.Fatalf("the stripe holds %d rows after 8 grows, want %d", got, markovWays<<7)
	}
	if s.find(cache.ID(1), hashID(cache.ID(1))) == nil {
		t.Fatal("growing lost a row")
	}
	freeRows(s.rows)
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
// pushes a million never-repeating ids through and asks the chain
// again: replacement takes the lightest row of a window, so the trained
// rows are all still there. The scan trains nothing, so it grows a
// stripe only where it meets a window whose eight rows are all trained:
// the table must end at no more than 16 384 rows.
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
	if allocated := m.Rows(); allocated > 16384 {
		t.Fatalf("a scan after the chain left %d rows, want <= 16384", allocated)
	}
	after := chainTop1(m, wl, 50_000)
	if before < 0.5 {
		t.Fatalf("top-1 accuracy on the trained chain is %.4f; the model did not learn it", before)
	}
	if math.Abs(after-before) > 0.01 {
		t.Fatalf("top-1 accuracy %.4f before the scan, %.4f after; want within 0.01", before, after)
	}
	checkMarkovTable(t, m)
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
	checkMarkovTable(t, m)
}

// TestCountOfCountsMatchesRecount runs the table through every event
// that moves a slot's count — counting, a full row's smallest slot
// replaced, a row taken as a victim, a row halved — and holds the
// count-of-counts to a recount of every row's slots after each.
func TestCountOfCountsMatchesRecount(t *testing.T) {
	m := NewConcurrentMarkov1()
	for _, id := range markovStream(5000, 41) {
		m.Observe(id)
	}
	checkMarkovTable(t, m)

	// One state followed by 15 successors, unevenly (the squares mod
	// 29): its row keeps 8, so the smallest slot keeps being replaced.
	const state = cache.ID(1 << 30)
	for i := 0; i < 400; i++ {
		m.Observe(state)
		m.Observe(state + 1 + cache.ID(i*i%29))
	}
	var full markovRow
	eachMarkovRow(m, func(r *markovRow) {
		if r.key == state {
			full = *r
		}
	})
	var sum uint32
	for _, c := range full.cnt {
		sum += c
	}
	if full.n != markovSlots || sum == full.total {
		t.Fatalf("the 15-successor state holds %d slots summing to %d of %d: no slot was replaced", full.n, sum, full.total)
	}
	checkMarkovTable(t, m)

	// A row one transition short of halving, with counts that halve to
	// 0, 1, 2 and 3.
	const aged = cache.ID(1 << 31)
	seedMarkovRow(m, aged, []cache.ID{1, 2, 3, 4, 5}, []uint32{markovHalveAt - 13, 1, 3, 5, 6})
	m.Observe(aged)
	m.Observe(1)
	m.Observe(aged)
	m.Observe(1)
	checkMarkovTable(t, m)

	// A scan: once-seen rows take each other's places.
	rows := m.Rows()
	const scan = 20_000
	for i := 0; i < scan; i++ {
		m.Observe(cache.ID(1<<32 + i))
	}
	used := 0
	eachMarkovRow(m, func(*markovRow) { used++ })
	if used >= scan {
		t.Fatalf("%d rows in use after a scan of %d ids (%d rows allocated before it): no row was taken as a victim", used, scan, rows)
	}
	checkMarkovTable(t, m)
}

// TestAdjustedCountsPayOnTheRule scores the table's candidates on the
// paper's objective: over 200,000 requests, Σ(p − θ) across the top-4
// candidates the rule admits (p̂ > θ), p being the chain's true
// transition probability. On chain-obj's chain (fanout 2, decay 0.15,
// restart 0.03) and on a fanout-4 chain (decay 0.5, restart 0.1), at the
// light loads θ = 0.01, 0.03 and 0.05 where p̂ alone decides, ranking
// and admitting on the adjusted counts must score within 0.001 a
// request of the raw counts of the same rows, or above; on chain-obj's,
// whose restarts are one-off jumps, it must admit fewer. The 0.001 is
// the pooled histogram's price: a count of one in a rarely visited row
// is more often a true successor than a jump, and the table-wide N_1,
// made mostly of jumps in trained rows, marks it down too. That costs
// 0.0003 a request on chain-obj at θ 0.05 and 0.0004 on fanout 4 at θ
// 0.01 (about 0.05 % of the score); chain-obj at θ 0.01 gains 0.0027.
func TestAdjustedCountsPayOnTheRule(t *testing.T) {
	thetas := []float64{0.01, 0.03, 0.05}
	for _, chain := range []struct {
		name  string
		cfg   workload.MarkovConfig
		fewer bool
	}{
		{"chain-obj", workload.MarkovConfig{N: 2000, Fanout: 2, Decay: 0.15, Restart: 0.03}, true},
		{"fanout 4", workload.MarkovConfig{N: 2000, Fanout: 4, Decay: 0.5, Restart: 0.1}, false},
	} {
		wl := workload.NewMarkov(chain.cfg, rng.NewStream(1, chain.name))
		m := NewConcurrentMarkov1()
		var score [2][]float64 // [adjusted, raw][θ]
		var admitted [2][]int
		for i := range score {
			score[i], admitted[i] = make([]float64, len(thetas)), make([]int, len(thetas))
		}
		adj, raw := make([]Prediction, 0, 4), make([]Prediction, 0, 4)
		const requests = 200_000
		for i := 0; i < requests; i++ {
			id := wl.Next()
			adj = m.ObserveAndPredictTopInto(id, 4, adj[:0])
			raw = rawTop(m, id, 4, raw[:0])
			for s, top := range [][]Prediction{adj, raw} {
				for j, theta := range thetas {
					for _, c := range top {
						if c.Prob > theta {
							score[s][j] += wl.TransitionProb(id, c.Item) - theta
							admitted[s][j]++
						}
					}
				}
			}
		}
		for j, theta := range thetas {
			a, r := score[0][j]/requests, score[1][j]/requests
			na, nr := float64(admitted[0][j])/requests, float64(admitted[1][j])/requests
			t.Logf("%-9s θ %.2f: Σ(p − θ) a request %.4f adjusted, %.4f raw; admitted a request %.3f adjusted, %.3f raw", chain.name, theta, a, r, na, nr)
			if a < r-0.001 {
				t.Errorf("%s, θ %.2f: adjusted counts score %.4f a request, raw counts %.4f: more than 0.001 lower", chain.name, theta, a, r)
			}
			if chain.fewer && na >= nr {
				t.Errorf("%s, θ %.2f: adjusted counts admit %.3f a request, raw counts %.3f: want fewer", chain.name, theta, na, nr)
			}
		}
	}
}

// rawTop appends id's k most probable successors by raw count to dst:
// its row ranked against an empty histogram, which adjusts nothing.
func rawTop(m *ConcurrentMarkov1, id cache.ID, k int, dst []Prediction) []Prediction {
	h := hashID(id)
	s := &m.stripes[stripeOfHash(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.find(id, h); r != nil {
		return r.topInto(dst, k, &[gtCounts]int64{})
	}
	return dst
}

// BenchmarkConcurrentMarkov1Scan is the table under ids that never
// repeat: nothing is trained, so it stays at one window per stripe and
// every call replaces a once-seen row and finds none for the id it
// predicts from. The table is filled before the timer starts, so B/op
// reads the steady state: 0.
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
		scorers := []top1Scorer{tableScorer(NewConcurrentMarkov1())}
		for _, ref := range []Predictor{NewMarkov1(), NewPPM(2), NewPPM(3),
			NewDependencyGraph(2), NewDependencyGraph(4), NewLZ78(), NewPopularity(1)} {
			scorers = append(scorers, referenceScorer(ref))
		}
		var markov float64
		for i, sc := range scorers {
			top1 := top1Of(sc, stream.ids)
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

// benchShapes rebuilds, for seed 1, the request streams of the four
// benchmark workloads from the generators the benchmark draws them from
// (bench/workloads.go), each as the sequence of ids the daemon's table
// observes: scan-miss's affine walk over 10⁶ keys, hot-obj's Zipf(0.9)
// over 1000 keys with a never-seen key every 128th request, chain-obj's
// chain and page-batch's 8-key sessions, key by key.
func benchShapes() []struct {
	name string
	ids  []cache.ID
} {
	const scanKeys = 1_000_000
	src := rng.NewStream(1, "scan-miss")
	mul, off := int64(src.Intn(scanKeys/10))*10+3, int64(src.Intn(scanKeys))
	scan := make([]cache.ID, 1<<18)
	for n := range scan {
		scan[n] = cache.ID((mul*int64(n) + off) % scanKeys)
	}

	zipf, src := rng.NewZipf(1000, 0.9), rng.NewStream(1, "hot-obj")
	hot := make([]cache.ID, 500_000)
	for n := range hot {
		switch {
		case n < 1000:
			hot[n] = cache.ID(n)
		case n%128 == 0:
			hot[n] = cache.ID(1_000_000 + n)
		default:
			hot[n] = cache.ID(zipf.Sample(src))
		}
	}

	wl := workload.NewMarkov(workload.MarkovConfig{N: 2000, Fanout: 2, Decay: 0.15, Restart: 0.03},
		rng.NewStream(1, "chain-obj"))
	chain := make([]cache.ID, 100_000)
	for n := range chain {
		chain[n] = wl.Next()
	}

	sessions := workload.NewSessions(workload.SessionConfig{Pages: 400, Fanout: 8, Objects: 1600},
		rng.NewStream(1, "page-batch"))
	var pages []cache.ID
	for len(pages) < 160_000 {
		pages = sessions.NextInto(pages)
	}

	return []struct {
		name string
		ids  []cache.ID
	}{{"scan-miss", scan}, {"hot-obj", hot}, {"chain-obj", chain}, {"page-batch", pages}}
}

// top1Of is the share of ids whose id was the scorer's first candidate
// going in.
func top1Of(sc top1Scorer, ids []cache.ID) float64 {
	hits := 0
	guess, ok := cache.ID(0), false
	for _, id := range ids {
		if ok && guess == id {
			hits++
		}
		guess, ok = sc.observe(id)
	}
	return float64(hits) / float64(len(ids))
}

// tableScorer drives m the planner's way: ObserveAndPredictTopInto(id, 2).
func tableScorer(m *ConcurrentMarkov1) top1Scorer {
	buf := make([]Prediction, 0, 2)
	return top1Scorer{"markov (concurrent, bounded)", func(id cache.ID) (cache.ID, bool) {
		buf = m.ObserveAndPredictTopInto(id, 2, buf[:0])
		if len(buf) == 0 {
			return 0, false
		}
		return buf[0].Item, true
	}}
}

// TestMarkovTableGrowsWithTraining keeps the table's growth decision
// reproducible: a stripe doubles only while its full window is all
// trained or a quarter of its rows are, so a key earns memory by coming
// back. It feeds each benchmark stream shape to a fresh table and to
// the sequential Markov1 and logs the table's rows and both top-1
// readings. The scan, where no key comes back, must hold one window per
// stripe (512 rows); hot-obj, whose cold tail never comes back, at most
// 8 192 rows; on the learnable shapes (chain-obj, page-batch) the
// table's top-1 must stay within 0.002 of Markov1's. The price is a
// loop, whose first pass looks like a scan: a 5 000-key loop walked
// pass by pass must still be learned (top-1 ≥ 0.95) within five passes
// (four measured, against two when every key got a row).
func TestMarkovTableGrowsWithTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("four benchmark stream shapes, about a million requests")
	}
	for _, shape := range benchShapes() {
		m := NewConcurrentMarkov1()
		table, ref := top1Of(tableScorer(m), shape.ids), top1Of(referenceScorer(NewMarkov1()), shape.ids)
		t.Logf("%-10s %7d requests: %6d rows, top-1 %.4f (Markov1 %.4f)", shape.name, len(shape.ids), m.Rows(), table, ref)
		switch rows := m.Rows(); shape.name {
		case "scan-miss":
			if rows != predStripes*markovWays {
				t.Errorf("scan-miss: %d rows, want one window per stripe (%d): nothing in a scan is trained", rows, predStripes*markovWays)
			}
		case "hot-obj":
			if rows > 8192 {
				t.Errorf("hot-obj: %d rows, want <= 8192: the cold tail is never trained", rows)
			}
		default:
			if math.Abs(table-ref) > 0.002 {
				t.Errorf("%s: the table reads top-1 %.4f against Markov1's %.4f; want within 0.002", shape.name, table, ref)
			}
		}
	}

	const loopKeys, passes = 5000, 5
	loop := make([]cache.ID, loopKeys)
	for i := range loop {
		loop[i] = cache.ID(i)
	}
	sc, learned := tableScorer(NewConcurrentMarkov1()), 0
	for pass := 1; pass <= passes; pass++ {
		top1 := top1Of(sc, loop)
		t.Logf("%d-key loop, pass %d: top-1 %.4f", loopKeys, pass, top1)
		if learned == 0 && top1 >= 0.95 {
			learned = pass
		}
	}
	if learned == 0 {
		t.Errorf("a %d-key loop is not learned (top-1 ≥ 0.95) within %d passes", loopKeys, passes)
	}
}
