package cache_test

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
)

// decisionStreams are the key streams the replacement-order decision
// is judged on: the four BENCHMARK.json workloads' generators at the
// entry counts their daemons run (scan-miss at what its byte budget
// holds: 8 MiB of 16 KiB payloads), and one pass of the recorded trace1k
// fixture at two cache sizes. page-batch is read the daemon's way, as
// /batch sessions of 8 keys; every other stream one /obj per key. Each
// stream carries the link load its daemon measured (fetch.rho_prime in
// bench's --trace 1 report): chain-obj ≈0.03, page-batch ≈0.82, hot-obj
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
		{"hot-obj/4096", hot, 4096, 1, 0.03}, {"chain-obj/512", chain, 512, 1, 0.03}, {"page-batch/512", pages, 512, 8, 0.82},
		{"scan-miss/511", scan, 511, 1, 0.37}, {"trace1k/32", trace, 32, 1, 0}, {"trace1k/8", trace, 8, 1, 0},
	}
}

type decisionStream struct {
	name     string
	ids      []cache.ID
	capacity int
	session  int     // keys per request the daemon serves: 8 for a /batch, 1 for an /obj
	rho      float64 // the link's ρ̂′: the daemon admits a candidate of p̂ above it
}

// replayer is what missRatio drives: policyStore, slruStore,
// landingStore or filteredSLRU. Admit carries the landing bit: speculative is true for
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

// filteredSLRU is the reference model of a frequency-filtered segmented
// LRU (TinyLFU's admission in front of SLRU), written with plain slices,
// least recently used first, and a count-min sketch of its own. Every
// Access counts its key in the sketch, hit or miss; Contains and Admit
// do not. A demand Admit that finds the n entries full stores its key
// only if the sketch counts it more often than the victim — probation's
// least recent entry, or protected's while probation is empty — and
// otherwise stores nothing; a speculative Admit is never filtered. A hit
// on probation moves the entry to the protected list of at most p, whose
// least recent entry goes back to probation.
type filteredSLRU struct {
	n, p     int
	lists    [2][]cache.ID
	sketch   *cmSketch
	declined int
}

func newFilteredSLRU(n, p int) *filteredSLRU {
	return &filteredSLRU{n: n, p: p, sketch: newCMSketch(n)}
}

func (m *filteredSLRU) Access(id cache.ID) bool {
	m.sketch.add(id)
	l, i := m.find(id)
	if i < 0 {
		return false
	}
	m.lists[l] = slices.Delete(m.lists[l], i, i+1)
	m.lists[1] = append(m.lists[1], id)
	if len(m.lists[1]) > m.p {
		m.lists[0] = append(m.lists[0], m.lists[1][0])
		m.lists[1] = m.lists[1][1:]
	}
	return true
}

func (m *filteredSLRU) Admit(id cache.ID, speculative bool) {
	if m.Contains(id) {
		return
	}
	if len(m.lists[0])+len(m.lists[1]) == m.n {
		l := 0
		if len(m.lists[0]) == 0 {
			l = 1
		}
		if !speculative && m.sketch.estimate(id) <= m.sketch.estimate(m.lists[l][0]) {
			m.declined++
			return
		}
		m.lists[l] = m.lists[l][1:]
	}
	m.lists[0] = append(m.lists[0], id)
}

func (m *filteredSLRU) Contains(id cache.ID) bool {
	_, i := m.find(id)
	return i >= 0
}

func (m *filteredSLRU) find(id cache.ID) (l, i int) {
	for l := range m.lists {
		if i := slices.Index(m.lists[l], id); i >= 0 {
			return l, i
		}
	}
	return 0, -1
}

// cmSketch is a count-min sketch of 4 rows of 4-bit saturating counters,
// each row 4× the entry bound wide, rounded up to a power of two; every
// counter is halved after 10× the bound increments. A key's counter in
// row r is the top bits of its mixed hash times row r's odd multiplier.
type cmSketch struct {
	table        []uint64 // rows of 16 counters a word
	words        int      // words a row
	shift        uint     // 64 − log₂ width
	adds, period int
}

var cmRows = [4]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93}

func newCMSketch(bound int) *cmSketch {
	width, bits := 16, uint(4)
	for width < 4*bound {
		width, bits = width*2, bits+1
	}
	return &cmSketch{table: make([]uint64, 4*width/16), words: width / 16, shift: 64 - bits, period: 10 * bound}
}

// counter returns the word and bit shift of id's counter in row r.
func (s *cmSketch) counter(id cache.ID, r int) (int, uint) {
	h := uint64(id)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	i := h * cmRows[r] >> s.shift
	return r*s.words + int(i>>4), uint(i&15) * 4
}

func (s *cmSketch) add(id cache.ID) {
	for r := range cmRows {
		w, sh := s.counter(id, r)
		if s.table[w]>>sh&15 < 15 {
			s.table[w] += 1 << sh
		}
	}
	if s.adds++; s.adds == s.period {
		s.adds = 0
		for i, w := range s.table {
			s.table[i] = w >> 1 & 0x7777777777777777
		}
	}
}

func (s *cmSketch) estimate(id cache.ID) uint64 {
	est := uint64(15)
	for r := range cmRows {
		w, sh := s.counter(id, r)
		est = min(est, s.table[w]>>sh&15)
	}
	return est
}

// missRatio replays ids through store in requests of session keys
// each (the last request may be shorter). A request gathers its hits,
// then admits its misses. With k > 0 it then plans as the engine does:
// the bounded Markov table observes the request's ids in order,
// predicting only from the last, and of its top k successors those not
// resident whose p̂ exceeds rho — the threshold rule's p_th = ρ′ — land
// as speculative admissions. session = 1, k = 4 is an /obj stream (4 is
// WithMaxPrefetch's default); session = 8, k = 4 is page-batch's
// /batch, which plans once per session.
func missRatio(ids []cache.ID, store replayer, session, k int, rho float64) float64 {
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
	return 1 - float64(hits)/float64(len(ids))
}

// TestShippedOrderHasLeastRegret keeps the byte store's replacement
// order reproducible: prefetchd's store (bytestore, through store.New)
// and the library's default cache ship the order that, on the traffic
// the daemon serves, strays least far from the best one on any stream —
// segmented LRU with half the entries protected, behind TinyLFU's
// frequency filter. It replays each stream through every policy in this
// package, through NewSLRUCache at ½, ⅔ and ⅘ of the entries protected
// and through the shipped store, and logs four columns per row: per-key
// top 2, per-key top 4, demand-only, and the daemon's own shape — top 4
// per /obj request, and for page-batch top 4 once per 8-key /batch
// session from its last id — each planning column admitting only
// candidates above the stream's link load and landing them speculative.
// An order's excess on a stream is its daemon-shaped miss_ratio minus
// the best order's there. The test fails unless the shipped order has
// the smallest worst-case excess over the six streams, and unless it
// misses at least 0.02 less than LRU on page-batch's sessions, where
// the replacement order, not prefetching, sets both of the paper's axes.
func TestShippedOrderHasLeastRegret(t *testing.T) {
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
	// lru first and the shipped store second: the gates read both by index.
	const shipped = 1
	orders := []order{
		policy("lru", func() cache.Policy { return cache.NewLRU() }),
		{"tlfu½", func(capacity int) replayer { return newLandingStore(capacity) }},
		slru("slru½", 1, 2),
		slru("slru⅔", 2, 3),
		slru("slru⅘", 4, 5),
		policy("fifo", func() cache.Policy { return cache.NewFIFO() }),
		policy("lfu", func() cache.Policy { return cache.NewLFU() }),
		policy("clock", func() cache.Policy { return cache.NewClock() }),
		policy("random", func() cache.Policy { return cache.NewRandomPolicy(rng.NewStream(1, "random-policy")) }),
	}
	worst := make([]float64, len(orders)) // worst-case excess, per order
	for _, st := range decisionStreams(t) {
		daemon := make([]float64, len(orders))
		for i, o := range orders {
			top2 := missRatio(st.ids, o.mk(st.capacity), 1, 2, st.rho)
			top4 := missRatio(st.ids, o.mk(st.capacity), 1, 4, st.rho)
			off := missRatio(st.ids, o.mk(st.capacity), 1, 0, st.rho)
			daemon[i] = top4
			if st.session > 1 {
				daemon[i] = missRatio(st.ids, o.mk(st.capacity), st.session, 4, st.rho)
			}
			t.Logf("%-15s ρ̂′ %.2f %-6s miss_ratio %.4f per-key top 2, %.4f top 4, %.4f demand-only, %.4f as the daemon plans",
				st.name, st.rho, o.name, top2, top4, off, daemon[i])
		}
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
		t.Logf("worst-case excess miss_ratio as the daemon plans: %-6s %.4f", orders[i].name, w)
	}
	for i, w := range worst {
		if w < worst[shipped] {
			t.Errorf("%s strays at most %.4f from the best order on any stream, %s %.4f — the shipped order (store.New, the engine's default cache) is not the one of least regret",
				orders[i].name, w, orders[shipped].name, worst[shipped])
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
// filteredSLRU, the reference model of segmented LRU ½ behind TinyLFU's
// filter, op for op — every Access's hit or miss, every landing's
// residency, and as many demand landings declined — on each decision
// stream, demand-only and as the daemon plans.
func TestShippedStoreMatchesReference(t *testing.T) {
	for _, st := range decisionStreams(t) {
		for _, k := range []int{0, 4} {
			store, ref := newLandingStore(st.capacity), newFilteredSLRU(st.capacity, st.capacity/2)
			l := &lockstep{t: t, got: store, want: ref, what: fmt.Sprintf("%s top %d", st.name, k)}
			missRatio(st.ids, l, st.session, k, st.rho)
			if got := store.s.SlabStats().Declined; got != int64(ref.declined) {
				t.Fatalf("%s: the store declined %d landings, the reference %d", l.what, got, ref.declined)
			}
			t.Logf("%-15s top %d: %d ops in lockstep, %d landings, %d declined", st.name, k, l.ops, l.admit, ref.declined)
		}
	}
}
