package predict

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/offheap"
)

// This file holds the one internally concurrent access model, the
// engine's: Observe and PredictTop may be called from many goroutines
// at once, which is what lets the prefetch engine run without a
// predictor mutex. The sequential implementations in predict.go, ppm.go
// and lz.go stay the reference semantics (and the evaluation harness
// keeps using them); ConcurrentMarkov1 reproduces Markov1's exactly,
// within the bounds below, when driven sequentially.
//
// The stream state — the current item — is one atomic swap, so every
// observation enters one total order no matter which engine shard it
// came from and cross-shard transitions are preserved. The model state
// is one flat, bounded table of fixed-width rows with no pointers in
// them, striped by key hash so concurrent observers only contend when
// they touch the same stripe: the threshold rule only ever consumes the
// few most probable successors of a state, so a row holds the
// markovSlots heaviest and the table holds the heaviest rows. The rows
// live outside the Go heap (internal/offheap), so the garbage collector
// neither traces them nor sizes its heap goal from them.
//
// Layout: predStripes stripes, each one plain mutex over a power-of-two
// []markovRow read in windows of markovWays consecutive rows. A key
// hashes to one stripe and one window and lives nowhere else, so every
// operation is one lock, one window scan and one slot scan.
//
// Bounds and what gives way at them:
//
//   - A key that finds its window full takes the row with the smallest
//     total: a once-seen row (a scan's, whose p̂ is one count over one)
//     goes first, a trained row — two transitions or more — survives.
//     Below markovStripeRows rows (65 536 rows of 112 B ≈ 7 MiB for the
//     table) the stripe doubles instead while that row is trained (so
//     all eight are) or a quarter of its rows are. A key earns memory by
//     coming back: a scan leaves 512 rows, and a loop of W keys is
//     learned in about log₄(W/512) + 2 passes.
//   - A row that already holds markovSlots successors gives a new one
//     the slot with the smallest count, space-saving style, and the
//     newcomer starts again from one. total still counts every
//     transition, kept or dropped, so cnt/total stays on the paper's
//     scale: a successor heavy enough to clear a threshold is not the
//     smallest for long and keeps its exact count, the light tail is
//     under-counted.
//
// The estimate. A raw share r/total is biased high for small r: every
// row also collects one-off jumps that will not recur, and on a lightly
// loaded link, where the threshold ρ′ is a few hundredths, p̂ alone
// decides. So successors are ranked and offered at Good–Turing adjusted
// counts (Good 1953; Katz 1987): a count r ≤ 5 becomes r* = min(r,
// (r+1)·N_{r+1}/N_r), N_r being how many slots of the whole table (a
// stripe holds a 64th of that evidence) hold count r, and p̂ = r*/total;
// r stays r where N_r or N_{r+1} is empty (a cold table). The six N_r
// are atomics on a line of their own; an observation nets its moves
// first, so a trained chain's bumps and a scan's replaced once-seen
// rows write nothing shared.
//
// Exactness regime (the contract the equivalence tests hold): while no
// state has shown more than markovSlots distinct successors, no stripe
// is at its ceiling and no once-seen row was displaced (which happens
// only in a stripe less than a quarter trained), counts and totals
// equal the sequential Markov1's for the same linearised stream, and
// each p̂ is Markov1's count adjusted by the rule above from Markov1's
// own count-of-counts. Markov1 stays the raw-count reference.

const (
	// predStripes is the number of lock stripes the table is spread
	// across. Power of two; 64 comfortably exceeds the hardware
	// parallelism the engine shards across.
	predStripes = 64
	// markovSlots is the number of successors one row keeps. The engine
	// asks for at most its per-request prefetch cap, well inside this.
	markovSlots = 8
	// markovWays is the number of consecutive rows a key may live in.
	markovWays = 8
	// markovStripeRows caps one stripe; a power of two.
	markovStripeRows = 1024
	// markovSetShift places the window index in the hashID bits just
	// below the six that pick the stripe.
	markovSetShift = 64 - 6 - 7
	// markovHalveAt is the row total at which the row's counts are
	// halved, far enough below 1<<32 that no 32-bit counter wraps.
	markovHalveAt = 1 << 31
)

// hashID is the Fibonacci hash ids are spread with (the same the engine
// uses for its shards); its best-mixed bits are the top ones.
func hashID(id cache.ID) uint64 { return uint64(id) * 0x9E3779B97F4A7C15 }

// stripeOfHash routes a hashID to a stripe: its top 6 bits → 0..63.
func stripeOfHash(h uint64) int { return int(h >> 58) }

// markovRow is one state's successor counts. total == 0 marks an unused
// row (a used row has counted at least one transition).
type markovRow struct {
	key   cache.ID
	total uint32
	n     uint8 // succ[:n] and cnt[:n] are in use
	succ  [markovSlots]cache.ID
	cnt   [markovSlots]uint32
}

// count records one transition key → next, and each slot count it
// moves in d.
func (r *markovRow) count(next cache.ID, d *countMoves) {
	if r.total >= markovHalveAt {
		r.halve(d)
	}
	r.total++
	slot := 0
	for i := 0; i < int(r.n); i++ {
		if r.succ[i] == next {
			d.move(r.cnt[i], r.cnt[i]+1)
			r.cnt[i]++
			return
		}
		if r.cnt[i] < r.cnt[slot] {
			slot = i
		}
	}
	if r.n < markovSlots {
		slot = int(r.n)
		r.n++
	}
	d.move(r.cnt[slot], 1)
	r.succ[slot] = next
	r.cnt[slot] = 1
}

// halve ages the row: the total and every count are halved, which
// leaves each raw count's share where it was. It runs only when total
// reaches markovHalveAt, to keep the 32-bit counters from wrapping, and
// is the only ageing a row ever gets. A count of one drops to zero:
// that slot is no longer predicted and is the next to be replaced.
func (r *markovRow) halve(d *countMoves) {
	r.total /= 2
	for i := 0; i < int(r.n); i++ {
		d.move(r.cnt[i], r.cnt[i]/2)
		r.cnt[i] /= 2
	}
}

// topInto appends the row's k most probable successors to dst, at their
// counts adjusted against nr (nr[i] is N_{i+1}; see The estimate above).
func (r *markovRow) topInto(dst []Prediction, k int, nr *[gtCounts]int64) []Prediction {
	total := int64(r.total)
	top := newTopPredictionsOn(dst, k)
	for i := 0; i < int(r.n); i++ {
		c := int64(r.cnt[i])
		if c == 0 {
			continue
		}
		num, den := c, total
		if c < gtCounts {
			if n, next := nr[c-1], nr[c]; n > 0 && next > 0 && (c+1)*next < c*n {
				num, den = (c+1)*next, n*total
			}
		}
		top.offer(Prediction{Item: r.succ[i], Prob: float64(num) / float64(den)})
	}
	return top.buf
}

// gtCounts is how many count-of-counts the table keeps: N_1…N_6, which
// is what adjusting the counts 1…5 needs.
const gtCounts = 6

// countOfCounts is the table-wide N_r: element r−1 is the number of
// successor slots, over every row, that hold count r.
type countOfCounts [gtCounts]atomic.Int64

// add applies one observation's moves, writing only the counts that
// changed.
func (cc *countOfCounts) add(d *countMoves) {
	for i, v := range d {
		if v != 0 {
			cc[i].Add(v)
		}
	}
}

// countMoves is one observation's net change to the count-of-counts,
// gathered on the stack so that moves which cancel — a once-seen
// victim's slot given to a new successor, a smallest slot of count one
// replaced — write nothing shared.
type countMoves [gtCounts]int64

// move records one slot's count going from one value to another, 0
// standing for no slot (a new one, or one taken away). A move between
// counts above gtCounts records nothing.
func (d *countMoves) move(from, to uint32) {
	if from-1 < gtCounts { // from == 0 wraps past it
		d[from-1]--
	}
	if to-1 < gtCounts {
		d[to-1]++
	}
}

// markovStripe is one lock's share of the table, padded to a cache line
// so neighbouring stripes' mutexes do not false-share
// (TestMarkovStripeLayout holds the padding to whole lines).
type markovStripe struct {
	mu      sync.Mutex
	rows    []markovRow // off the Go heap (allocRows); nil until the stripe's first key
	trained int         // rows with total >= 2
	_       [24]byte
}

// window returns the markovWays rows the key hashing to h may occupy.
// Used rows are a prefix of it: a key always takes the first unused row
// and rows are replaced, never vacated. s.rows must be non-empty.
func (s *markovStripe) window(h uint64) []markovRow {
	set := int(h>>markovSetShift) & (len(s.rows)/markovWays - 1)
	return s.rows[set*markovWays : (set+1)*markovWays]
}

// find returns key's row, or nil.
func (s *markovStripe) find(key cache.ID, h uint64) *markovRow {
	if len(s.rows) == 0 {
		return nil
	}
	w := s.window(h)
	for i := range w {
		if w[i].total == 0 {
			return nil
		}
		if w[i].key == key {
			return &w[i]
		}
	}
	return nil
}

// row returns key's row, claiming one if it has none: the first unused
// row of its window, else — unless the stripe grows first (see Bounds)
// — the row with the smallest total, whose slots leave the histogram
// through d. A claimed row is zero but for its key; the caller counts a
// transition into it before unlocking.
func (s *markovStripe) row(key cache.ID, h uint64, d *countMoves) *markovRow {
	if len(s.rows) == 0 {
		s.grow()
	}
	for {
		w := s.window(h)
		victim := &w[0]
		for i := range w {
			r := &w[i]
			if r.total == 0 {
				r.key = key
				return r
			}
			if r.key == key {
				return r
			}
			if r.total < victim.total {
				victim = r
			}
		}
		trained := victim.total >= 2
		if len(s.rows) < markovStripeRows && (trained || 4*s.trained >= len(s.rows)) {
			s.grow()
			continue
		}
		if trained {
			s.trained--
		}
		for _, c := range victim.cnt[:victim.n] {
			d.move(c, 0)
		}
		*victim = markovRow{key: key}
		return victim
	}
}

// grow doubles the stripe and frees its old rows. The window index gains
// one high bit, so the rows of one old window split between two new ones
// and always fit.
func (s *markovStripe) grow() {
	old := s.rows
	s.rows = allocRows(max(2*len(old), markovWays))
	for i := range old {
		if old[i].total == 0 {
			continue
		}
		w := s.window(hashID(old[i].key))
		for j := range w {
			if w[j].total == 0 {
				w[j] = old[i]
				break
			}
		}
	}
	freeRows(old)
}

// rowBytes is the size of one markovRow.
const rowBytes = int(unsafe.Sizeof(markovRow{}))

// allocRows maps n unused (zero) rows outside the Go heap: a markovRow
// holds no pointer, which is what makes that sound.
func allocRows(n int) []markovRow {
	return unsafe.Slice((*markovRow)(unsafe.Pointer(unsafe.SliceData(offheap.Alloc(n*rowBytes)))), n)
}

// freeRows gives back rows allocRows returned; nil is a no-op.
func freeRows(rows []markovRow) {
	if len(rows) > 0 {
		offheap.Free(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows)*rowBytes))
	}
}

// markovNoState marks "no request observed yet" in the atomic current
// state. The one id equal to math.MinInt64 is therefore unusable as an
// item id; real id spaces are dense non-negative integers.
const markovNoState = math.MinInt64

// ConcurrentMarkov1 is the concurrent first-order Markov model. The
// current state is a single atomic: Observe swaps the new id in and
// counts the transition from whatever it swapped out, so concurrent
// observers each claim a unique predecessor and every observation
// extends one global chain — the exact multiset of transitions a
// sequential model would count for the same linearised stream.
//
// Its memory follows what it has learned: ids seen once leave it at 512
// rows, and no stream takes it past 65 536 rows of 8 successors each,
// about 7 MiB, however many distinct ids it is shown. The rows are mapped
// off the Go heap, so the table costs its own size in RSS and not, as on
// the heap at GOGC=100, up to as much again in garbage headroom. A
// stripe frees its old rows when it grows, and a finalizer frees the rest
// once the model is unreachable: it points at nothing on the heap, so it
// is in no cycle and is its own holder. See the top of this file for the
// layout, what is replaced at the bounds, and the regime in which it is
// exact, and for the Good–Turing estimate it serves. The sequential
// Markov1 stays the unbounded, raw-count reference.
type ConcurrentMarkov1 struct {
	stripes [predStripes]markovStripe
	cur     atomic.Int64
	_       [56]byte // cc starts a cache line of its own
	cc      countOfCounts
	_       [64 - 8*gtCounts]byte
}

// NewConcurrentMarkov1 returns an empty concurrent first-order Markov
// predictor.
func NewConcurrentMarkov1() *ConcurrentMarkov1 {
	m := &ConcurrentMarkov1{}
	m.cur.Store(markovNoState)
	runtime.SetFinalizer(m, (*ConcurrentMarkov1).free)
	return m
}

// free gives back every stripe's rows; only the finalizer calls it.
func (m *ConcurrentMarkov1) free() {
	for i := range m.stripes {
		freeRows(m.stripes[i].rows)
	}
}

// Rows returns how many rows the table has allocated, used or not: 512
// (one window per stripe) while nothing is trained, at most 65 536
// however many ids it has been shown.
func (m *ConcurrentMarkov1) Rows() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += len(s.rows)
		s.mu.Unlock()
	}
	return n
}

// Observe implements Predictor. Safe for concurrent use.
func (m *ConcurrentMarkov1) Observe(id cache.ID) {
	swapped := m.cur.Swap(int64(id))
	if swapped == markovNoState {
		return
	}
	prev := cache.ID(swapped)
	h := hashID(prev)
	s := &m.stripes[stripeOfHash(h)]
	var d countMoves
	s.mu.Lock()
	r := s.row(prev, h, &d)
	r.count(id, &d)
	if r.total == 2 {
		s.trained++
	}
	s.mu.Unlock()
	m.cc.add(&d)
}

// topOf appends the k most probable successors of state id to dst. The
// row is copied out under the stripe lock and ranked outside it, on one
// load of the count-of-counts.
func (m *ConcurrentMarkov1) topOf(id cache.ID, dst []Prediction, k int) []Prediction {
	if k <= 0 || id == markovNoState {
		return nil
	}
	h := hashID(id)
	s := &m.stripes[stripeOfHash(h)]
	s.mu.Lock()
	r := s.find(id, h)
	if r == nil {
		s.mu.Unlock()
		return nil
	}
	row := *r
	s.mu.Unlock()
	var nr [gtCounts]int64
	for i := range nr {
		nr[i] = m.cc[i].Load()
	}
	return row.topInto(dst, k, &nr)
}

// Predict implements Predictor: every successor the current state's row
// holds, at most markovSlots.
func (m *ConcurrentMarkov1) Predict() []Prediction {
	return m.topOf(cache.ID(m.cur.Load()), nil, markovSlots)
}

// PredictTop implements TopPredictor.
func (m *ConcurrentMarkov1) PredictTop(k int) []Prediction {
	return m.PredictTopInto(nil, k)
}

// PredictTopInto implements TopIntoPredictor.
func (m *ConcurrentMarkov1) PredictTopInto(dst []Prediction, k int) []Prediction {
	return m.topOf(cache.ID(m.cur.Load()), dst, k)
}

// ObserveAndPredictTop observes id and returns the top-k candidates
// conditioned on id being the request just served (k <= 0 observes
// only). With separate Observe/PredictTop calls a racing observer can
// move cur between the two, so a lock-free caller would sometimes plan
// from another request's context; here the candidates are id's own
// successors, which restores exactly the conditioning a global
// observe+predict critical section would give.
func (m *ConcurrentMarkov1) ObserveAndPredictTop(id cache.ID, k int) []Prediction {
	return m.ObserveAndPredictTopInto(id, k, nil)
}

// ObserveAndPredictTopInto is the engine's hot-path form of
// ObserveAndPredictTop: the candidates are appended to dst (a pooled
// buffer passed as buf[:0]), so the per-request prediction allocates
// nothing. ObserveAndPredictTop(id, k) ≡ ObserveAndPredictTopInto(id,
// k, nil).
func (m *ConcurrentMarkov1) ObserveAndPredictTopInto(id cache.ID, k int, dst []Prediction) []Prediction {
	m.Observe(id)
	return m.topOf(id, dst, k)
}

// Name implements Predictor.
func (m *ConcurrentMarkov1) Name() string { return "markov1" }

// ConcurrentSafe marks the goroutine-safety contract: Observe, Predict,
// PredictTop and PredictTopInto need no external locking. A reader that
// overlaps writers sees some valid recent state (a row is copied out
// under its stripe lock); once observers quiesce, Predict returns what
// the sequential Markov1's counts would give, adjusted, for the same
// observation stream, within the exactness regime stated at the top of
// this file.
func (m *ConcurrentMarkov1) ConcurrentSafe() {}
