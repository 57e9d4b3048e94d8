package prefetcher

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/prefetcher/internal/store"
)

// --- Predictor adapter over internal/predict ----------------------------

// predictorAdapter lifts the built-in model to the public Predictor.
// Its methods exist for callers that use the built-in predictor outside
// an Engine; the engine itself unwraps m at New and its planner calls
// the model directly, with no public-type conversion per call. staging
// pools the internal-type buffer PredictTopInto converts out of, so the
// public path honours its zero-allocation contract.
type predictorAdapter struct {
	m       *predict.ConcurrentMarkov1
	staging *sync.Pool // *[]predict.Prediction
}

func (a predictorAdapter) Observe(id ID) { a.m.Observe(cache.ID(id)) }

func (a predictorAdapter) Name() string { return a.m.Name() }

// PredictTopInto implements the public TopIntoPredictor: the top-k
// candidates are appended to dst, converted out of a pooled staging
// buffer, so the call is allocation-free in steady state.
func (a predictorAdapter) PredictTopInto(dst []Prediction, k int) []Prediction {
	if k <= 0 {
		return nil
	}
	buf := a.staging.Get().(*[]predict.Prediction)
	out := dst[:0]
	for _, p := range a.m.PredictTopInto((*buf)[:0], k) {
		out = append(out, Prediction{ID: ID(p.Item), Prob: p.Prob})
	}
	a.staging.Put(buf)
	return out
}

// NewMarkovPredictor returns a first-order Markov access model (counts
// of prev→next transitions) — the default predictor. It is safe for
// concurrent use, as every Predictor is: the current state is an atomic
// swap chain and the transition table is striped by key, one short mutex
// per stripe.
//
// Its memory follows what it has learned: a flat, pointer-free table of
// states × 8 successors that grows only while its states are trained
// (seen twice), so ids seen once — a scan — leave it at 512 states, and
// never past 65 536, about 7 MiB, however many distinct ids it sees. A
// new state replaces the least-visited state that hashes beside it (a
// once-seen scan id goes first, a trained state stays); in a state that
// already holds 8 successors a new one takes over the slot with the
// smallest count and counts again from one. Counts are exact while every
// state has at most 8 distinct successors and no once-seen state has
// been displaced. p̂ is a count over its state's total, counts ≤ 5
// Good–Turing adjusted by the table-wide count-of-counts, so a one-off
// jump is not offered at one count over a short total. It is the one
// built-in model: any other (PPM, LZ78, a dependency graph, popularity,
// a learned model) plugs in through the Predictor interface, a
// sequential one behind a mutex of its own.
func NewMarkovPredictor() Predictor {
	return predictorAdapter{predict.NewConcurrentMarkov1(), &sync.Pool{New: func() any {
		s := make([]predict.Prediction, 0, 16)
		return &s
	}}}
}

// --- The built-in caches -----------------------------------------------

// NewLRUCache returns a least-recently-used cache holding at most
// capacity items, with no byte bound. It is the slab-indexed store
// prefetchd runs (repro/prefetcher/bytestore, there bounded by bytes
// too): a []byte payload of up to 64 KiB is copied into an arena off the
// Go heap, so Get hands back an equal copy, and GetBytes serves it with
// no allocation; a larger []byte, or any other value, is held by
// reference. It panics if capacity < 1.
func NewLRUCache(capacity int) Cache { return store.NewLRU(capacity) }

// NewSLRUCache returns NewLRUCache's store in segmented-LRU order: an
// entry starts on probation and moves to a protected list of at most
// protectedCap entries on re-reference (a Get, or a Put of a resident
// id); victims come from probation first, so prefetches never used churn
// through it without displacing the protected working set (capacity/2
// is a reasonable protectedCap). Unlike New's default and bytestore's
// store it admits every Put: no frequency filter. It panics if either
// bound is < 1.
func NewSLRUCache(capacity, protectedCap int) Cache { return store.NewSLRU(capacity, protectedCap) }

// --- Clocks -------------------------------------------------------------

// systemClock is the default wall-clock time source.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// ManualClock is a Clock whose time only moves when told to — for
// deterministic tests and trace replay. It is safe for concurrent use.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock returns a manual clock starting at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// AdvanceSeconds moves the clock forward by s seconds (a convenience
// for simulations whose inter-arrival times are float64 seconds).
func (c *ManualClock) AdvanceSeconds(s float64) {
	c.Advance(time.Duration(s * float64(time.Second)))
}
