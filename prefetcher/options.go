package prefetcher

import (
	"fmt"
	"math"

	"repro/prefetcher/fetch"
)

// Option configures an Engine at construction.
type Option func(*config) error

type config struct {
	predictor    Predictor
	cache        Cache
	cacheFactory func(shard, shards int) Cache
	clock        Clock
	policy       Policy
	bandwidth    float64
	shards       int // 0 = derive from GOMAXPROCS (or 1 with WithCache)
	workers      int
	queueDepth   int // speculative jobs queued at most; a full queue sheds (PrefetchDropped)
	maxPrefetch  int
	hook         func(Event)

	// Fetch fabric (no backends = New's fetcher is the one backend).
	backends []fetch.Backend
	hedging  *fetch.Hedging
}

// defaultCacheCapacity is the total capacity of the default cache, split
// evenly across shards: SLRU, half of each shard protected (1 entry: LRU).
const defaultCacheCapacity = 1024

func defaultConfig() *config {
	return &config{
		clock:       systemClock{},
		policy:      AdaptiveThreshold(ModelA()),
		workers:     4,
		queueDepth:  64,
		maxPrefetch: 4,
	}
}

// WithPredictor sets the access model (default: NewMarkovPredictor).
// The engine inspects the predictor once, at New, and from then on
// reaches it through one call per request — observe the request's ids,
// return the top WithMaxPrefetch candidates for the last. The built-in
// model (NewMarkovPredictor's) is called directly; anything else is a
// plugin, called through the Predictor interface from every shard at
// once with no lock of the engine's, so it must be safe for concurrent
// use (see Predictor).
func WithPredictor(p Predictor) Option {
	return func(c *config) error {
		if p == nil {
			return fmt.Errorf("prefetcher: nil predictor")
		}
		c.predictor = p
		return nil
	}
}

// WithCache sets the client-side store (default: bytestore's W-TinyLFU
// order, 1024 entries split across shards, a window of two in front of
// segmented LRU behind the admission filter). A single Cache instance can only serve a single-shard
// engine: combining WithCache with WithShards(n > 1) is a construction
// error, and without WithShards a supplied cache pins the shard count to
// one. Sharded engines wanting a custom cache use WithCacheFactory. A
// prewarmed cache (entries present before New) is served as-is; hits on
// entries the engine never fetched report size 1, the same default the
// fetch path applies.
func WithCache(s Cache) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("prefetcher: nil cache")
		}
		c.cache = s
		return nil
	}
}

// WithCacheFactory sets a per-shard cache constructor: fn is called once
// per shard with the shard index and total shard count, and must return
// a fresh Cache each time (shards never share an instance — each cache
// is guarded by its shard's lock). Size per-shard capacities as
// total/shards. Mutually exclusive with WithCache.
func WithCacheFactory(fn func(shard, shards int) Cache) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("prefetcher: nil cache factory")
		}
		c.cacheFactory = fn
		return nil
	}
}

// WithShards sets how many partitions the engine's keyed hot-path state
// (cache, in-flight dedup, size/used accounting) is split into; n is
// rounded up to the next power of two. More shards means demand traffic
// on disjoint keys contends less on the engine's locks; the adaptive
// policy is unaffected because its estimates (λ̂, ŝ̄, ĥ′, ρ̂′, n̄(F))
// are aggregated globally in the shared controller. The default derives
// from GOMAXPROCS, or 1 when WithCache supplies a single cache
// instance.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("prefetcher: shard count %d must be >= 1", n)
		}
		c.shards = n
		return nil
	}
}

// WithClock sets the time source (default: the wall clock).
func WithClock(clk Clock) Option {
	return func(c *config) error {
		if clk == nil {
			return fmt.Errorf("prefetcher: nil clock")
		}
		c.clock = clk
		return nil
	}
}

// WithPolicy sets the prefetch policy (default:
// AdaptiveThreshold(ModelA()), which requires WithBandwidth).
func WithPolicy(p Policy) Option {
	return func(c *config) error {
		if !p.valid() {
			return fmt.Errorf("prefetcher: zero Policy; use a constructor such as AdaptiveThreshold")
		}
		c.policy = p
		return nil
	}
}

// WithBandwidth sets the link bandwidth b, in the same units per second
// as item sizes. It anchors the global utilisation estimate
// ρ̂′ = (1−ĥ′)λ̂ŝ̄/b that Stats reports, is the capacity of
// the "origin" link when New is given a fetcher, and is required by the
// adaptive policy (AdaptiveThreshold).
func WithBandwidth(b float64) Option {
	return func(c *config) error {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("prefetcher: bandwidth %v must be positive and finite", b)
		}
		c.bandwidth = b
		return nil
	}
}

// WithWorkers sets the size of the speculative-fetch worker pool
// (default 4). Demand fetches run on the caller's goroutine and are not
// limited by the pool.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("prefetcher: worker count %d must be >= 1", n)
		}
		c.workers = n
		return nil
	}
}

// WithMaxPrefetch caps how many items may be prefetched per request
// (default 4). 0 disables speculation entirely while keeping the online
// estimators running.
func WithMaxPrefetch(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("prefetcher: max prefetch %d must be >= 0", n)
		}
		c.maxPrefetch = n
		return nil
	}
}

// WithEventHook registers a callback observing engine events (hits,
// misses, prefetch dispatch/completion/drops). The hook is called
// synchronously from the hot path after the engine's locks are released
// — concurrently from however many goroutines drive Get — so it must be
// fast, goroutine-safe, and must not call back into the engine's Get.
func WithEventHook(fn func(Event)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("prefetcher: nil event hook")
		}
		c.hook = fn
		return nil
	}
}

// WithBackends names the fetch fabric's backends in place of New's
// single origin fetcher — which is itself shorthand for one backend
// "origin" with the WithBandwidth capacity. Each fetch goes to the
// backend of shortest expected delay on the paper's processor-sharing
// link: the least (in-flight + 1)/b, b being a link's
// fetch.Backend.Bandwidth or, left 0, the peak per-fetch goodput the
// fabric measures (a link with none yet takes one fetch at a time),
// scaled by the share of the link's late attempts served. A request's
// owned misses go together, as one demand batch, and a plan is admitted
// once, against the links' demand-only ρ̂′ weighted by the same b, and
// routed once, whole. An id has no backend of its own: the rule reads
// the links' load, not the id. A failed demand fetch fails over to the
// next backend, speculative candidates routed to one batch-capable
// backend are coalesced into a single FetchBatch call, and each link's
// latency, bandwidth and utilisation are estimated separately.
// Pass nil as New's fetcher when using backends (supplying both is a
// construction error). Per-backend stats appear in Stats.Backends.
func WithBackends(backends ...fetch.Backend) Option {
	return func(c *config) error {
		if len(backends) == 0 {
			return fmt.Errorf("prefetcher: WithBackends needs at least one backend")
		}
		c.backends = append([]fetch.Backend(nil), backends...)
		return nil
	}
}

// WithHedging enables hedged retries on the demand path: when the
// preferred backend has not answered within its observed p95 latency,
// the next backend in route order is raced against it; the first
// success wins and the loser is cancelled through its context. Failed
// attempts fail over with h.Backoff between retries. With a single
// backend (New's fetcher included) hedging degrades to sequential
// retries when h.MaxAttempts exceeds one.
func WithHedging(h fetch.Hedging) Option {
	return func(c *config) error {
		if h.MaxAttempts < 0 || h.Backoff < 0 {
			return fmt.Errorf("prefetcher: negative hedging parameter %+v", h)
		}
		c.hedging = &h
		return nil
	}
}

// validate applies defaults and cross-checks the assembled config.
func (c *config) validate() error {
	if c.predictor == nil {
		c.predictor = NewMarkovPredictor()
	}
	if c.cache != nil && c.cacheFactory != nil {
		return fmt.Errorf("prefetcher: WithCache and WithCacheFactory are mutually exclusive")
	}
	if c.shards == 0 {
		if c.cache != nil {
			c.shards = 1 // a single supplied instance cannot be partitioned
		} else {
			c.shards = defaultShards()
		}
	} else {
		c.shards = nextPow2(c.shards)
	}
	if c.cache != nil && c.shards > 1 {
		return fmt.Errorf("prefetcher: WithCache supplies a single instance but WithShards(%d) needs one cache per shard; use WithCacheFactory or WithShards(1)", c.shards)
	}
	if c.policy.adaptive && c.bandwidth == 0 {
		return fmt.Errorf("prefetcher: policy %s adapts to load and requires WithBandwidth", c.policy.Name())
	}
	if c.bandwidth == 0 {
		// Static policies never consult ρ̂′, but the controller still
		// needs a positive bandwidth to normalise against.
		c.bandwidth = 1
	}
	return nil
}
