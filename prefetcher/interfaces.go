package prefetcher

import (
	"time"

	"repro/prefetcher/fetch"
)

// ID identifies a fetchable item. Applications with string keys should
// intern them to dense integer ids; the predictors and caches all work
// on integers. Like Item, Fetcher, FetcherFunc and BatchFetcher below it
// is package fetch's type under a second name (and fetch.ID the access
// model's), so ids cross every seam without conversion.
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
// request and answers with its most probable candidates for the next.
// The engine shares one predictor across all shards and calls it from
// all of them at once, with no lock of its own, so a Predictor must be
// safe for concurrent use: a model that is not must take its own lock.
// Per request the engine observes each of the request's ids, in order —
// the ids of a GetMulti session included, though other requests' ids
// may fall between them — then asks PredictTopInto for at most
// WithMaxPrefetch candidates. A racing request may observe between a
// request's last Observe and its PredictTopInto, so a model whose
// answer is conditioned on "the last observation" answers for whichever
// observation came last. NewMarkovPredictor's model, the built-in, is
// not reached through this interface inside an Engine: it predicts as
// part of the observation, conditioned on the observed id itself.
type Predictor interface {
	Observe(id ID)
	Name() string
	TopIntoPredictor
}

// TopIntoPredictor is the prediction half of Predictor: PredictTopInto
// appends the model's k most probable candidates to dst (the engine
// passes a pooled buffer as buf[:0], which keeps its per-request
// prediction allocation-free) and returns the extended slice, sorted by
// decreasing probability and holding at most k entries. The engine
// drops whatever an answer holds beyond k.
type TopIntoPredictor interface {
	PredictTopInto(dst []Prediction, k int) []Prediction
}

// Cache is the bounded client-side store the engine consults before
// fetching. Each engine shard owns exactly one Cache instance and
// serialises every call on it under that shard's lock, so
// implementations need not be goroutine-safe — but instances must never
// be shared between shards (WithCacheFactory must return a fresh Cache
// per call).
//
// A cache that keeps no bytes answers false from the byte view
// (GetBytes, BytesLen) and is read boxed, through Get. The landing bit
// is found by method set: a cache with Land(id, v, speculative) bool and
// LandBytes(id, b, speculative) bool, as the built-in store has, may turn
// a demand landing away and takes fetched bytes by copy, so it is lent
// buffers (see bytes.go).
type Cache interface {
	// Get returns the cached payload and whether the item was resident,
	// refreshing recency metadata on a hit.
	Get(id ID) (value any, ok bool)
	// GetBytes appends id's payload to dst and returns the extended
	// slice, refreshing recency metadata exactly as Get would. ok is
	// false when id is kept boxed (the engine then reads Get) or absent,
	// which GetBytes counts as Get counts a miss (a cache keeping no
	// bytes: if !Contains(id) { Get(id) }); dst is then returned unchanged.
	GetBytes(id ID, dst []byte) ([]byte, bool)
	// BytesLen reports the stored payload length without copying it,
	// refreshing recency metadata like a hit. ok follows GetBytes.
	BytesLen(id ID) (int, bool)
	// Put inserts the payload under id, evicting as needed.
	Put(id ID, value any)
	// Contains reports residency without touching metadata or counters.
	Contains(id ID) bool
	// Len reports the resident count.
	Len() int
	// OnEvict registers a callback that must be invoked with each id
	// the cache evicts, synchronously from within whichever Cache call
	// evicts it (Put for the built-in store; a TTL cache may also
	// evict during Get). The engine relies on it for the tagged h′
	// estimator, its prefetch-waste accounting and its live resident
	// count — a cache that drops entries without reporting them skews
	// all three.
	OnEvict(fn func(id ID))
}

// ByteCache is Cache's former name, kept only because bench/trace.go
// asserts it; it goes when that file next changes.
type ByteCache = Cache

// Clock supplies the engine's notion of time. The default is the wall
// clock; simulations and tests inject a ManualClock.
type Clock interface {
	Now() time.Time
}
