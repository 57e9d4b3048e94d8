package prefetcher

import (
	"time"

	"repro/prefetcher/fetch"
)

// ID identifies a fetchable item. Applications with string keys should
// intern them to dense integer ids; the predictors and caches all work
// on integers. Like Item, Fetcher, FetcherFunc and BatchFetcher below it
// is package fetch's type under a second name, so ids, items and
// fetchers cross the engine/fabric seam without conversion.
type ID = fetch.ID

// Item is a fetched object: its id, its size in whatever unit the
// engine's bandwidth is expressed in (a size of 0 is treated as 1), and
// an opaque payload stored in the cache and handed back on hits.
type Item = fetch.Item

// Fetcher retrieves items from the origin. The engine calls it for
// demand fetches (with the caller's context) and speculative fetches
// (with the engine's context, cancelled on Close). Implementations must
// be safe for concurrent use — the worker pool calls Fetch from
// multiple goroutines.
type Fetcher = fetch.Fetcher

// FetcherFunc adapts a plain function to the Fetcher interface.
type FetcherFunc = fetch.FetcherFunc

// BatchFetcher is optionally implemented by a Fetcher to coalesce
// several ids into one origin call. FetchBatch must return exactly one
// Item per requested id, in request order. The engine batches two
// kinds of traffic through it: adjacent speculative candidates (an
// error, or a short or misordered reply, fails the whole batch — a
// lost prefetch costs nothing a later demand fetch won't recover), and
// the coalesced misses of a GetMulti session (a batch error or a
// short/misordered reply degrades to per-key fallback fetches, so one
// bad reply never fails the session). Both apply to every engine,
// however it was constructed. Singleton demand Gets stay single-item
// so they can be hedged and cancelled individually.
type BatchFetcher = fetch.BatchFetcher

// Prediction is one candidate for an upcoming access.
type Prediction struct {
	ID ID
	// Prob is the model's estimate of the probability that ID is
	// requested next (or within the model's horizon).
	Prob float64
}

// Predictor is an online access model: it learns from each observed
// request and can be queried for a probability-ranked candidate set.
// The engine shares one predictor across all shards. A plain Predictor
// need not be goroutine-safe: the engine wraps it, at New, in a planner
// that holds a dedicated compatibility mutex across each request's
// calls — the Observe of every id of the request, in order, then the
// one prediction — so a request (a whole GetMulti session included) is
// one critical section and its ids are adjacent in the stream the model
// sees. A predictor that is internally concurrent should implement
// ConcurrentPredictor instead — the planner then has no mutex at all,
// which is what lets prediction scale with the shard count. Predict
// must return candidates sorted by decreasing probability.
type Predictor interface {
	Observe(id ID)
	Predict() []Prediction
	Name() string
}

// TopPredictor is optionally implemented by Predictors that can produce
// just their k most probable candidates without materialising and
// sorting the full distribution. The result must equal the first k
// entries of Predict(). The engine only ever consumes a bounded prefix
// of the candidate list (WithMaxPrefetch), so when a predictor
// implements TopPredictor the hot path dispatches PredictTop instead of
// Predict — with or without the compatibility mutex — and drops
// whatever any of the three forms returns beyond that prefix.
type TopPredictor interface {
	PredictTop(k int) []Prediction
}

// TopIntoPredictor is optionally implemented by TopPredictors that can
// append their k most probable candidates to a caller-supplied buffer
// instead of allocating a fresh slice per call: PredictTopInto appends
// to dst (the engine passes a pooled buffer as buf[:0]) and returns the
// extended slice, whose contents must equal PredictTop(k). Implementing
// it keeps the engine's per-request prediction allocation-free; the
// built-in predictor does.
type TopIntoPredictor interface {
	PredictTopInto(dst []Prediction, k int) []Prediction
}

// ConcurrentPredictor marks a Predictor whose Observe, Predict,
// PredictTop and PredictTopInto are all safe for concurrent use without
// external locking. The engine detects the marker at construction and
// builds the predictor's planner without the compatibility mutex: every
// request calls the predictor directly, with no serialisation — the
// predictor itself must linearise whatever stream state it keeps (see
// internal/predict's concurrent Markov table for the reference
// technique: an atomic-swap chain for the stream, a striped table with
// one short mutex per stripe for the model). Note that a request's
// Observe calls and its PredictTopInto/PredictTop/Predict then run back
// to back without atomicity: a racing request may observe in between —
// inside a GetMulti session too — so an external implementation whose
// prediction context is "the last observation" should condition its
// answers on state it derives from the id stream internally if that
// matters to it (the built-in, which the engine calls through a
// coupled observe-and-predict, conditions each prediction on the
// observed id itself, so a racing observation cannot redirect a
// request's candidates). NewMarkovPredictor returns a concurrent
// predictor; Stats reports which path the engine chose in
// PredictorLockFree.
type ConcurrentPredictor interface {
	Predictor
	// ConcurrentSafe is a marker: implementing it asserts the
	// goroutine-safety contract above.
	ConcurrentSafe()
}

// Cache is the bounded client-side store the engine consults before
// fetching. Each engine shard owns exactly one Cache instance and
// serialises every call on it under that shard's lock, so
// implementations need not be goroutine-safe — but instances must never
// be shared between shards (WithCacheFactory must return a fresh Cache
// per call).
type Cache interface {
	// Get returns the cached payload and whether the item was resident,
	// refreshing recency metadata on a hit.
	Get(id ID) (value any, ok bool)
	// Put inserts the payload under id, evicting as needed.
	Put(id ID, value any)
	// Contains reports residency without touching metadata or counters.
	Contains(id ID) bool
	// Len reports the resident count.
	Len() int
	// OnEvict registers a callback that must be invoked with each id
	// the cache evicts, synchronously from within whichever Cache call
	// evicts it (Put for the built-in caches; a TTL cache may also
	// evict during Get). The engine relies on it for the tagged h′
	// estimator, its prefetch-waste accounting and its live resident
	// count — a cache that drops entries without reporting them skews
	// all three.
	OnEvict(fn func(id ID))
}

// ByteCache is optionally implemented by a Cache whose payloads are
// raw bytes servable without boxing through the any-typed Get — the
// seam Engine.GetBytes/GetMultiBytes use to stay allocation-free on
// hits (repro/prefetcher/bytestore provides the slab-backed
// implementation). Like every Cache method, both extensions are called
// only under the owning shard's lock.
type ByteCache interface {
	Cache
	// GetBytes appends id's payload to dst and returns the extended
	// slice, refreshing recency metadata exactly as Get would. ok is
	// false when id cannot be served as bytes — absent, or resident
	// with a non-[]byte payload (the caller distinguishes the two with
	// Contains); dst is then returned unchanged.
	GetBytes(id ID, dst []byte) ([]byte, bool)
	// BytesLen reports the stored payload length without copying it,
	// refreshing recency metadata like a hit. ok follows GetBytes.
	BytesLen(id ID) (int, bool)
}

// BytesPutter is optionally implemented by a Cache that can take a byte
// payload by copy: PutBytes stores b under id exactly as Put(id, b)
// would — same residency, same evictions reported — except that nothing
// the cache keeps may alias b once it returns. It is what lets the
// engine land a fetch read into a buffer it only borrowed (see bytes.go):
// when every shard's cache has it, misses and prefetches are lent one;
// otherwise payloads arrive owned and go through Put. bytestore's slab
// store implements it. Called only under the owning shard's lock.
type BytesPutter interface {
	PutBytes(id ID, b []byte)
}

// Clock supplies the engine's notion of time. The default is the wall
// clock; simulations and tests inject a ManualClock.
type Clock interface {
	Now() time.Time
}
