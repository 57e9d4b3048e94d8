package predict

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
)

// This file holds the internally concurrent access models. The
// sequential implementations in predict.go/ppm.go stay the reference
// semantics (and the evaluation harness keeps using them); the types
// here reproduce those semantics exactly when driven sequentially
// (ConcurrentMarkov1, in markovtable.go, within its bounds), while
// allowing Observe and PredictTop to be called from many
// goroutines at once — which is what lets the prefetch engine drop its
// global predictor mutex.
//
// The shared design: the *stream* state (the Markov current item, the
// PPM history, the dependency-graph window) is tiny and is linearised
// either by one atomic swap or by a mutex held only long enough to copy
// a handful of ids — this is what preserves cross-shard transitions,
// because every observation enters one total order no matter which
// engine shard it came from. The *model* state (the transition and
// context tables, which is where all the time goes) is striped by key
// hash, so concurrent observers only contend when they touch the same
// stripe of the model: PPM and the dependency graph keep maps of rows
// whose counts are plain atomics (and grow with the key space); the
// Markov model, the engine's default, keeps the flat bounded table of
// markovtable.go.

// ConcurrentPredictor is a Predictor whose Observe, Predict,
// PredictTop and PredictTopInto are all safe for concurrent use without
// external locking. Observe and PredictTopInto are the hot-path pair
// (the Into form appends into a caller-pooled buffer, so prediction
// itself allocates nothing); Predict remains the evaluation-facing full
// distribution. A reader that overlaps writers sees some valid recent
// state (snapshots are taken per row, not globally); once observers
// quiesce, Predict returns exactly what the sequential reference model
// would for the same observation stream — for ConcurrentMarkov1, whose
// table is bounded, within the exactness regime stated in
// markovtable.go.
type ConcurrentPredictor interface {
	Predictor
	TopPredictor
	TopIntoPredictor
	// ConcurrentSafe is a marker: implementing it asserts the
	// goroutine-safety contract above.
	ConcurrentSafe()
}

// CoupledPredictor is implemented by concurrent models that can predict
// *as part of* an observation: ObserveAndPredictTop(id, k) observes id
// and returns the top-k candidates conditioned on id being the request
// just served (k <= 0 observes only). With separate Observe/PredictTop
// calls a racing observer can move the shared stream context between
// the two, so a lock-free caller would sometimes plan from another
// request's context; the coupled form never reads the racing context —
// Markov predicts from id's own row, PPM from the pre-observation
// history snapshot extended with id, the dependency graph from id's
// edges — which restores exactly the conditioning a global
// observe+predict critical section used to give. All five concurrent
// models implement it.
//
// ObserveAndPredictTopInto is the engine's hot-path form: same
// semantics, with the candidates appended to dst (a pooled buffer
// passed as buf[:0]) so the per-request prediction allocates nothing.
// ObserveAndPredictTop(id, k) ≡ ObserveAndPredictTopInto(id, k, nil).
type CoupledPredictor interface {
	ObserveAndPredictTop(id cache.ID, k int) []Prediction
	ObserveAndPredictTopInto(id cache.ID, k int, dst []Prediction) []Prediction
}

// predStripes is the number of lock stripes each concurrent model
// spreads its table across. Power of two; 64 comfortably exceeds the
// hardware parallelism the engine shards across.
const predStripes = 64

// hashID is the Fibonacci hash the concurrent models spread ids with
// (the same the engine uses for its shards); its best-mixed bits are
// the top ones.
func hashID(id cache.ID) uint64 { return uint64(id) * 0x9E3779B97F4A7C15 }

// stripeOfHash routes a hashID to a stripe: its top 6 bits → 0..63.
func stripeOfHash(h uint64) int { return int(h >> 58) }

// stripeOfID routes an id to a stripe.
func stripeOfID(id cache.ID) int { return stripeOfHash(hashID(id)) }

// stripeOfKey routes a context key to a stripe (FNV-1a).
func stripeOfKey(s string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int(h & (predStripes - 1))
}

// countRow is one row of a transition table: successor → atomic count,
// plus the row total maintained alongside so prediction normalises in a
// single pass. The RWMutex guards only the map structure; increments on
// existing entries are lock-free atomic adds under the read lock.
type countRow struct {
	mu     sync.RWMutex
	counts map[cache.ID]*atomic.Int64
	total  atomic.Int64
}

func newCountRow() *countRow {
	//lint:allow hotpathalloc model growth: a row is created on first sight of its context, steady state allocates nothing
	return &countRow{counts: make(map[cache.ID]*atomic.Int64)}
}

// inc adds one to the counter for id, creating it if needed.
func (r *countRow) inc(id cache.ID) {
	r.mu.RLock()
	c := r.counts[id]
	r.mu.RUnlock()
	if c == nil {
		r.mu.Lock()
		if c = r.counts[id]; c == nil {
			//lint:allow hotpathalloc model growth: one counter per new successor, steady state allocates nothing
			c = new(atomic.Int64)
			r.counts[id] = c
		}
		r.mu.Unlock()
	}
	c.Add(1)
	r.total.Add(1)
}

// snapshot copies the row into a plain map. The copy is per-row
// consistent enough for prediction: each count is read once, and the
// caller normalises by the sum of exactly the counts it read, so the
// resulting distribution is always valid and equals the sequential
// model's once observers quiesce. Predict-only: the hot paths read the
// row in place.
func (r *countRow) snapshot() map[cache.ID]int64 {
	r.mu.RLock()
	out := make(map[cache.ID]int64, len(r.counts))
	for id, c := range r.counts {
		if v := c.Load(); v > 0 {
			out[id] = v
		}
	}
	r.mu.RUnlock()
	return out
}

// offerCount feeds one counter into a top-k buffer as a clamped
// probability.
func offerCount(top *topPredictions, id cache.ID, v int64, ft float64) {
	if v <= 0 {
		return
	}
	p := float64(v) / ft
	if p > 1 {
		p = 1
	}
	top.offer(Prediction{Item: id, Prob: p})
}

// rowTable is a striped id → countRow map (the dependency graph's edge
// table).
type rowTable struct {
	stripes [predStripes]struct {
		mu   sync.RWMutex
		rows map[cache.ID]*countRow
	}
}

func newRowTable() *rowTable {
	t := &rowTable{}
	for i := range t.stripes {
		t.stripes[i].rows = make(map[cache.ID]*countRow)
	}
	return t
}

// row returns the countRow for id, creating it when create is set.
func (t *rowTable) row(id cache.ID, create bool) *countRow {
	s := &t.stripes[stripeOfID(id)]
	s.mu.RLock()
	r := s.rows[id]
	s.mu.RUnlock()
	if r != nil || !create {
		return r
	}
	s.mu.Lock()
	if r = s.rows[id]; r == nil {
		r = newCountRow()
		s.rows[id] = r
	}
	s.mu.Unlock()
	return r
}

// predictionsFromCounts turns a count snapshot into the full sorted
// distribution, normalising by total.
func predictionsFromCounts(counts map[cache.ID]int64, total float64) []Prediction {
	if len(counts) == 0 || total <= 0 {
		return nil
	}
	out := make([]Prediction, 0, len(counts))
	for id, c := range counts {
		out = append(out, Prediction{Item: id, Prob: float64(c) / total})
	}
	sortPredictions(out)
	return out
}

// sumCounts totals a snapshot.
func sumCounts(counts map[cache.ID]int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	return float64(total)
}

// ConcurrentPopularity is the concurrent global-frequency model: a
// lock-free map of atomic counters (sync.Map, so reads and increments
// of already-seen items take no lock at all — the steady state for a
// popularity model, whose whole point is that the same items recur).
type ConcurrentPopularity struct {
	counts sync.Map // cache.ID → *atomic.Int64
	total  atomic.Int64
	topK   int
}

// NewConcurrentPopularity returns a concurrent popularity predictor
// reporting the topK most frequent items (topK <= 0 means all).
func NewConcurrentPopularity(topK int) *ConcurrentPopularity {
	return &ConcurrentPopularity{topK: topK}
}

// Observe implements Predictor. Safe for concurrent use.
func (p *ConcurrentPopularity) Observe(id cache.ID) {
	//lint:allow hotpathalloc sync.Map key boxing: the runtime interns small ids and the gate TestPredictTopIntoAllocFree holds at 0 allocs/op
	if c, ok := p.counts.Load(id); ok {
		c.(*atomic.Int64).Add(1)
	} else {
		//lint:allow hotpathalloc model growth: one counter per new id, plus the sync.Map key boxing above
		c, _ := p.counts.LoadOrStore(id, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}
	p.total.Add(1)
}

// snapshot copies the live counters.
func (p *ConcurrentPopularity) snapshot() map[cache.ID]int64 {
	out := make(map[cache.ID]int64)
	p.counts.Range(func(k, v any) bool {
		if c := v.(*atomic.Int64).Load(); c > 0 {
			out[k.(cache.ID)] = c
		}
		return true
	})
	return out
}

// Predict implements Predictor.
func (p *ConcurrentPopularity) Predict() []Prediction {
	counts := p.snapshot()
	out := predictionsFromCounts(counts, sumCounts(counts))
	if p.topK > 0 && len(out) > p.topK {
		out = out[:p.topK]
	}
	return out
}

// PredictTop implements TopPredictor: one lock-free pass over the live
// counters, normalised by the atomic total (equal to the count sum once
// observers quiesce; momentarily behind it mid-race, so probabilities
// are clamped to 1).
func (p *ConcurrentPopularity) PredictTop(k int) []Prediction {
	return p.PredictTopInto(nil, k)
}

// PredictTopInto implements TopIntoPredictor.
//
//prefetch:hotpath
func (p *ConcurrentPopularity) PredictTopInto(dst []Prediction, k int) []Prediction {
	if p.topK > 0 && k > p.topK {
		k = p.topK // Predict truncates to topK; the prefix contract follows it
	}
	if k <= 0 {
		return nil
	}
	total := p.total.Load()
	if total == 0 {
		return nil
	}
	ft := float64(total)
	top := newTopPredictionsOn(dst, k)
	//lint:allow hotpathalloc non-capturing-by-reference Range body stays on the stack (sync.Map.Range does not retain it); gated at 0 allocs/op
	p.counts.Range(func(key, v any) bool {
		offerCount(&top, key.(cache.ID), v.(*atomic.Int64).Load(), ft)
		return true
	})
	return top.buf
}

// ObserveAndPredictTop implements CoupledPredictor. Popularity is
// context-free, so the coupled form is just the two calls in sequence.
func (p *ConcurrentPopularity) ObserveAndPredictTop(id cache.ID, k int) []Prediction {
	return p.ObserveAndPredictTopInto(id, k, nil)
}

// ObserveAndPredictTopInto implements CoupledPredictor.
//
//prefetch:hotpath
func (p *ConcurrentPopularity) ObserveAndPredictTopInto(id cache.ID, k int, dst []Prediction) []Prediction {
	p.Observe(id)
	if k <= 0 {
		return nil
	}
	return p.PredictTopInto(dst, k)
}

// Name implements Predictor.
func (p *ConcurrentPopularity) Name() string { return "popularity" }

// ConcurrentSafe implements ConcurrentPredictor.
func (p *ConcurrentPopularity) ConcurrentSafe() {}

// ctxTable is a striped context-key → countRow map (PPM's per-order
// tables).
type ctxTable struct {
	stripes [predStripes]struct {
		mu  sync.RWMutex
		tab map[string]*countRow
	}
}

func newCtxTable() *ctxTable {
	t := &ctxTable{}
	for i := range t.stripes {
		t.stripes[i].tab = make(map[string]*countRow)
	}
	return t
}

func (t *ctxTable) row(key string, create bool) *countRow {
	s := &t.stripes[stripeOfKey(key)]
	s.mu.RLock()
	r := s.tab[key]
	s.mu.RUnlock()
	if r != nil || !create {
		return r
	}
	s.mu.Lock()
	if r = s.tab[key]; r == nil {
		r = newCountRow()
		s.tab[key] = r
	}
	s.mu.Unlock()
	return r
}

// ConcurrentPPM is the concurrent order-k PPM model. The history (at
// most k ids) is guarded by a mutex held only for the copy-and-append —
// that serialisation is what defines the context each observation
// lands in, exactly as the shared stream order did under the engine's
// old global predictor lock. The per-order context tables, where the
// real work happens, are striped and atomic.
type ConcurrentPPM struct {
	k      int
	tables []*ctxTable // tables[o] = contexts of length o+1

	mu      sync.Mutex
	history []cache.ID
}

// NewConcurrentPPM creates a concurrent PPM predictor of maximum order
// k (k >= 1).
func NewConcurrentPPM(k int) *ConcurrentPPM {
	if k < 1 {
		panic(fmt.Sprintf("predict: PPM order %d must be >= 1", k))
	}
	tables := make([]*ctxTable, k)
	for i := range tables {
		tables[i] = newCtxTable()
	}
	return &ConcurrentPPM{k: k, tables: tables}
}

// appendHistory pushes id onto the bounded history and returns a copy
// of the history as it was just before — the contexts this observation
// extends.
func (p *ConcurrentPPM) appendHistory(id cache.ID) []cache.ID {
	p.mu.Lock()
	//lint:allow hotpathalloc PPM is allocation-exempt by design: the history copy is bounded by k (see TestPredictTopIntoAllocFree)
	prev := append([]cache.ID(nil), p.history...)
	p.history = append(p.history, id)
	if len(p.history) > p.k {
		p.history = p.history[1:]
	}
	p.mu.Unlock()
	return prev
}

// historySnapshot copies the current history.
func (p *ConcurrentPPM) historySnapshot() []cache.ID {
	p.mu.Lock()
	//lint:allow hotpathalloc PPM is allocation-exempt by design: the history copy is bounded by k
	h := append([]cache.ID(nil), p.history...)
	p.mu.Unlock()
	return h
}

// Observe implements Predictor. Safe for concurrent use.
func (p *ConcurrentPPM) Observe(id cache.ID) { p.observe(id) }

// observe records id under every context order and returns the
// pre-observation history copy.
func (p *ConcurrentPPM) observe(id cache.ID) []cache.ID {
	prev := p.appendHistory(id)
	for o := 1; o <= p.k && o <= len(prev); o++ {
		key := ctxKey(prev[len(prev)-o:])
		p.tables[o-1].row(key, true).inc(id)
	}
	return prev
}

// blend runs the PPM-C escape blend over a history snapshot, returning
// the unsorted probability map. Mirrors the sequential PPM.Predict,
// reading each order's row in place under its read lock (no per-order
// map copies); a count racing between the sum pass and the assign pass
// can skew one term momentarily, and vanishes once observers quiesce.
func (p *ConcurrentPPM) blend(history []cache.ID) map[cache.ID]float64 {
	//lint:allow hotpathalloc PPM is allocation-exempt by design: the escape blend builds per-call maps
	probs := make(map[cache.ID]float64)
	carry := 1.0
	//lint:allow hotpathalloc PPM is allocation-exempt by design: the escape blend builds per-call maps
	excluded := make(map[cache.ID]bool)
	for o := min(p.k, len(history)); o >= 1 && carry > 1e-12; o-- {
		key := ctxKey(history[len(history)-o:])
		r := p.tables[o-1].row(key, false)
		if r == nil {
			continue
		}
		r.mu.RLock()
		distinct := int64(len(r.counts))
		if distinct == 0 {
			r.mu.RUnlock()
			continue
		}
		total := r.total.Load()
		var exclCount int64
		for id := range excluded {
			if c := r.counts[id]; c != nil {
				exclCount += c.Load()
			}
		}
		avail := float64(total-exclCount) + float64(distinct)
		if avail <= 0 {
			r.mu.RUnlock()
			continue
		}
		for id, c := range r.counts {
			if excluded[id] {
				continue
			}
			probs[id] += carry * float64(c.Load()) / avail
			excluded[id] = true
		}
		carry *= float64(distinct) / avail
		r.mu.RUnlock()
	}
	return probs
}

// Predict implements Predictor.
func (p *ConcurrentPPM) Predict() []Prediction {
	probs := p.blend(p.historySnapshot())
	if len(probs) == 0 {
		return nil
	}
	out := make([]Prediction, 0, len(probs))
	for id, pr := range probs {
		out = append(out, Prediction{Item: id, Prob: pr})
	}
	sortPredictions(out)
	return out
}

// PredictTop implements TopPredictor. The PPM blend needs the full
// per-order rows anyway (exclusion couples the candidates), so the
// saving over Predict is the final sort, not the table walk.
func (p *ConcurrentPPM) PredictTop(k int) []Prediction {
	return p.PredictTopInto(nil, k)
}

// PredictTopInto implements TopIntoPredictor. The result lands in dst,
// but the blend itself still builds its per-call probability maps —
// PPM's exclusion rule couples every candidate, so the Into form bounds
// the output, not the blend.
//
//prefetch:hotpath
func (p *ConcurrentPPM) PredictTopInto(dst []Prediction, k int) []Prediction {
	if k <= 0 {
		return nil
	}
	return topFromProbs(p.blend(p.historySnapshot()), k, dst)
}

// ObserveAndPredictTop implements CoupledPredictor: the blend runs over
// the history as this observation left it (the pre-observation snapshot
// extended with id), not the live shared history a racing observer may
// already have advanced.
func (p *ConcurrentPPM) ObserveAndPredictTop(id cache.ID, k int) []Prediction {
	return p.ObserveAndPredictTopInto(id, k, nil)
}

// ObserveAndPredictTopInto implements CoupledPredictor.
//
//prefetch:hotpath
func (p *ConcurrentPPM) ObserveAndPredictTopInto(id cache.ID, k int, dst []Prediction) []Prediction {
	prev := p.observe(id)
	if k <= 0 {
		return nil
	}
	//lint:allow hotpathalloc PPM is allocation-exempt by design: extends this call's own history copy
	hist := append(prev, id) // prev is this call's own copy
	if len(hist) > p.k {
		hist = hist[len(hist)-p.k:]
	}
	return topFromProbs(p.blend(hist), k, dst)
}

// topFromProbs reduces an unsorted probability map to its k best
// entries in prediction order, appended to dst.
func topFromProbs(probs map[cache.ID]float64, k int, dst []Prediction) []Prediction {
	if len(probs) == 0 || k <= 0 {
		return nil
	}
	top := newTopPredictionsOn(dst, k)
	for id, pr := range probs {
		top.offer(Prediction{Item: id, Prob: pr})
	}
	return top.buf
}

// Name implements Predictor.
func (p *ConcurrentPPM) Name() string { return fmt.Sprintf("ppm(k=%d)", p.k) }

// ConcurrentSafe implements ConcurrentPredictor.
func (p *ConcurrentPPM) ConcurrentSafe() {}

// ConcurrentDependencyGraph is the concurrent Padmanabhan–Mogul model.
// Like ConcurrentPPM, the lookahead window is linearised under a short
// mutex (copy of at most w ids) and the edge table is striped with
// atomic counts; visit counts live in a lock-free map.
type ConcurrentDependencyGraph struct {
	w      int
	edges  *rowTable
	visits sync.Map // cache.ID → *atomic.Int64

	mu     sync.Mutex
	window []cache.ID
}

// NewConcurrentDependencyGraph creates a concurrent dependency-graph
// predictor with lookahead window w (w >= 1).
func NewConcurrentDependencyGraph(w int) *ConcurrentDependencyGraph {
	if w < 1 {
		panic(fmt.Sprintf("predict: window %d must be >= 1", w))
	}
	return &ConcurrentDependencyGraph{w: w, edges: newRowTable()}
}

// depgraphStackWindow bounds the window copy Observe can stage on the
// stack; the classic lookahead choices (2–10) sit well inside it.
const depgraphStackWindow = 16

// Observe implements Predictor. Safe for concurrent use. For windows up
// to depgraphStackWindow the pre-observation copy lives on the stack
// and the window itself slides by copy-down in its fixed backing array,
// so observing allocates only when id opens a new edge row.
func (g *ConcurrentDependencyGraph) Observe(id cache.ID) {
	var stack [depgraphStackWindow]cache.ID
	var prevs []cache.ID
	g.mu.Lock()
	if len(g.window) <= depgraphStackWindow {
		prevs = stack[:copy(stack[:], g.window)]
	} else {
		//lint:allow hotpathalloc cold fallback: windows beyond depgraphStackWindow copy to the heap; the default window fits the stack
		prevs = append([]cache.ID(nil), g.window...)
	}
	g.window = append(g.window, id)
	if len(g.window) > g.w {
		copy(g.window, g.window[1:])
		g.window = g.window[:g.w]
	}
	g.mu.Unlock()

	//lint:allow hotpathalloc sync.Map key boxing: the runtime interns small ids and the gate TestPredictTopIntoAllocFree holds at 0 allocs/op
	if c, ok := g.visits.Load(id); ok {
		c.(*atomic.Int64).Add(1)
	} else {
		//lint:allow hotpathalloc model growth: one visit counter per new id, plus the sync.Map key boxing above
		c, _ := g.visits.LoadOrStore(id, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}
	for _, prev := range prevs {
		if prev == id {
			continue
		}
		g.edges.row(prev, true).inc(id)
	}
}

// current returns the most recent request and its visit count.
func (g *ConcurrentDependencyGraph) current() (cache.ID, int64, bool) {
	g.mu.Lock()
	if len(g.window) == 0 {
		g.mu.Unlock()
		return 0, 0, false
	}
	cur := g.window[len(g.window)-1]
	g.mu.Unlock()
	c, ok := g.visits.Load(cur)
	if !ok {
		return cur, 0, false
	}
	return cur, c.(*atomic.Int64).Load(), true
}

// successorProbs snapshots the capped edge probabilities of cur.
func (g *ConcurrentDependencyGraph) successorProbs(cur cache.ID, visits int64) map[cache.ID]float64 {
	r := g.edges.row(cur, false)
	if r == nil || visits <= 0 {
		return nil
	}
	counts := r.snapshot()
	probs := make(map[cache.ID]float64, len(counts))
	for id, c := range counts {
		p := float64(c) / float64(visits)
		if p > 1 {
			p = 1 // an item can follow multiple times within one window
		}
		probs[id] = p
	}
	return probs
}

// Predict implements Predictor.
func (g *ConcurrentDependencyGraph) Predict() []Prediction {
	cur, visits, ok := g.current()
	if !ok {
		return nil
	}
	probs := g.successorProbs(cur, visits)
	if len(probs) == 0 {
		return nil
	}
	out := make([]Prediction, 0, len(probs))
	for id, p := range probs {
		out = append(out, Prediction{Item: id, Prob: p})
	}
	sortPredictions(out)
	return out
}

// topSuccessors collects the k best successors of cur in one in-place
// pass over its edge row under the read lock, normalised by cur's visit
// count (probabilities clamped at 1, as in the sequential model),
// appended to dst.
func (g *ConcurrentDependencyGraph) topSuccessors(cur cache.ID, k int, dst []Prediction) []Prediction {
	//lint:allow hotpathalloc sync.Map key boxing: the runtime interns small ids; gated at 0 allocs/op
	c, ok := g.visits.Load(cur)
	if !ok {
		return nil
	}
	visits := c.(*atomic.Int64).Load()
	if visits <= 0 {
		return nil
	}
	r := g.edges.row(cur, false)
	if r == nil {
		return nil
	}
	fv := float64(visits)
	top := newTopPredictionsOn(dst, k)
	r.mu.RLock()
	for id, cc := range r.counts {
		offerCount(&top, id, cc.Load(), fv)
	}
	r.mu.RUnlock()
	return top.buf
}

// PredictTop implements TopPredictor.
func (g *ConcurrentDependencyGraph) PredictTop(k int) []Prediction {
	return g.PredictTopInto(nil, k)
}

// PredictTopInto implements TopIntoPredictor.
//
//prefetch:hotpath
func (g *ConcurrentDependencyGraph) PredictTopInto(dst []Prediction, k int) []Prediction {
	if k <= 0 {
		return nil
	}
	g.mu.Lock()
	if len(g.window) == 0 {
		g.mu.Unlock()
		return nil
	}
	cur := g.window[len(g.window)-1]
	g.mu.Unlock()
	return g.topSuccessors(cur, k, dst)
}

// ObserveAndPredictTop implements CoupledPredictor: successors of the
// observed id itself, untouched by whatever a racing observer appends
// to the shared window.
func (g *ConcurrentDependencyGraph) ObserveAndPredictTop(id cache.ID, k int) []Prediction {
	return g.ObserveAndPredictTopInto(id, k, nil)
}

// ObserveAndPredictTopInto implements CoupledPredictor.
//
//prefetch:hotpath
func (g *ConcurrentDependencyGraph) ObserveAndPredictTopInto(id cache.ID, k int, dst []Prediction) []Prediction {
	g.Observe(id)
	if k <= 0 {
		return nil
	}
	return g.topSuccessors(id, k, dst)
}

// Name implements Predictor.
func (g *ConcurrentDependencyGraph) Name() string {
	return fmt.Sprintf("depgraph(w=%d)", g.w)
}

// ConcurrentSafe implements ConcurrentPredictor.
func (g *ConcurrentDependencyGraph) ConcurrentSafe() {}
