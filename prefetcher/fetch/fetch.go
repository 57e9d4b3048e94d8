// Package fetch is the backend fetch fabric behind the prefetch
// engine's Fetcher seam: it sends each demand and speculative fetch to
// the backend of shortest expected delay, coalesces adjacent prefetch
// candidates into batch calls, races hedged retries against slow
// backends, and estimates each link's latency, bandwidth b and
// utilisation separately — so the paper's admission threshold can be
// evaluated against the links' demand-only ρ̂′, weighted by the same b.
//
// Routing reads the paper's processor-sharing link: a transfer of size
// s beside n others in flight on a link of b takes about s(n + 1)/b, so
// a fetch goes where (in-flight + 1)/b is least, b scaled by the share
// of the link's late attempts served (a link that fails fast holds
// nothing in flight), and a link with no b yet takes one fetch at a
// time. The rule reads load, not the id: an id has no backend of its
// own, so an origin-side cache sees ids from every backend's traffic —
// nothing in this module measures what per-id affinity would buy there.
//
// The package owns the fetch-side vocabulary: ID, Item, Fetcher,
// FetcherFunc and BatchFetcher are defined here, below the engine in
// the import graph, and package prefetcher aliases them — one set of
// types, so ids and items cross the engine/fabric seam unconverted and
// an adapter written against either package serves both. Most users
// never construct a Fabric directly — every prefetcher.Engine
// assembles one, from WithBackends or from New's single fetcher — but
// the type is usable standalone as a load-routing, hedging Fetcher for
// any client.
package fetch

import (
	"context"
	"time"

	"repro/internal/cache"
)

// ID identifies a fetchable item: internal/cache's ID, as prefetcher.ID
// is this one, so one id type crosses every seam unconverted.
type ID = cache.ID

// Item is a fetched object: its id, its size in the same units per
// second the link bandwidths are expressed in (0 is treated as 1),
// and an opaque payload.
type Item struct {
	ID   ID
	Size float64
	Data any
}

// Fetcher retrieves items from one backend. Implementations must be
// safe for concurrent use: the fabric calls Fetch from demand
// goroutines, hedge goroutines and the engine's speculative worker
// pool at once, and must honour ctx cancellation promptly — a hedged
// fetch's loser is cancelled through its context.
type Fetcher interface {
	Fetch(ctx context.Context, id ID) (Item, error)
}

// FetcherFunc adapts a plain function to the Fetcher interface.
type FetcherFunc func(ctx context.Context, id ID) (Item, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(ctx context.Context, id ID) (Item, error) { return f(ctx, id) }

// BatchFetcher is optionally implemented by a backend's Fetcher to
// coalesce several ids into one backend call. FetchBatch must return
// exactly one Item per requested id, in request order. The fabric
// batches two kinds of traffic through it: adjacent speculative
// candidates (FetchSpeculativeBatch, where an error or a short or
// misordered reply fails the whole batch — a lost prefetch costs
// nothing) and a session's coalesced demand misses (FetchDemandBatch,
// where the same faults degrade to per-key fallback fetches — demand
// keys have callers waiting on each of them). Singleton demand fetches
// stay single-item so they can be hedged and cancelled individually.
type BatchFetcher interface {
	FetchBatch(ctx context.Context, ids []ID) ([]Item, error)
}

// IntoFetcher and BatchIntoFetcher are optionally implemented by a
// backend's Fetcher whose payloads are bytes it can read straight into
// a buffer the caller lends, instead of into a slice of its own boxed
// in Item.Data. The fabric probes for both once, at New (see
// Fabric.Lends), and lends only to attempts that run one at a time on
// the lending goroutine: sequential failover and the speculative
// workers. A hedged race, or any backend without the capability, keeps
// the whole fabric on the owned-payload calls.
//
// The borrow rule, for adapter authors: append, never keep. FetchInto
// appends id's payload to dst and returns the extended slice;
// FetchBatchInto appends the payloads of ids back to back, in request
// order, and one length per id to lens. Neither retains a reference to
// dst, touches dst[:len(dst)], or lets a goroutine write to it after
// returning. On any error the lent slices are returned at their
// original lengths — what lies past them is unspecified, and nothing
// ever reads it — and every bound the owned calls enforce (payload
// size, batch order and count) is enforced the same way.
type IntoFetcher interface {
	Fetcher
	FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error)
}

// BatchIntoFetcher is IntoFetcher's batch form; see there.
type BatchIntoFetcher interface {
	BatchFetcher
	FetchBatchInto(ctx context.Context, ids []ID, dst []byte, lens []int) ([]byte, []int, error)
}

// Backend names one origin link the fabric can fetch from.
type Backend struct {
	// Name identifies the backend in stats and reports. Backends of
	// one fabric must have distinct, non-empty names.
	Name string
	// Fetcher retrieves items from this backend. If it also implements
	// BatchFetcher, adjacent speculative candidates routed here are
	// dispatched as one FetchBatch call.
	Fetcher Fetcher
	// Bandwidth is the link's capacity b in size units per second, its
	// weight in RhoPrime and in routing: a fetch goes to the backend of
	// least (in-flight + 1)/b, so a link with a tenth of its peer's b is
	// sent a fetch while idle only once its peer has ten in flight. 0
	// means unknown: the link's ρ̂′ then reads its smoothed per-fetch
	// goodput (size/latency) as b, and its weight that goodput's recent
	// peak, which moves with every fetch and, where round trips dominate,
	// reads nearer size over RTT; until it has one, the link takes one
	// fetch at a time. Routing and RhoPrime scale either b by the share
	// of the link's late attempts served.
	Bandwidth float64
	// DemandTimeout bounds each demand attempt dispatched to this
	// backend — every hedge, retry and demand batch gets its own
	// budget, layered under the caller's context, so one stuck origin
	// connection turns into a failover instead of a stalled request.
	// 0 means no per-attempt bound (the caller's ctx still applies).
	DemandTimeout time.Duration
	// SpeculativeTimeout independently bounds each speculative fetch or
	// speculative batch dispatched to this backend. Speculative work is
	// optional by definition, so it usually deserves a much shorter
	// budget than demand traffic: a prefetch that cannot complete
	// quickly is better abandoned than left occupying the link. 0 means
	// unlimited (the engine's lifecycle context still applies).
	SpeculativeTimeout time.Duration
}

// Hedging configures hedged retries on the demand path. Failover on
// error happens regardless — hedging adds racing a second backend
// *before* the first has failed, once the primary's attempt has run the
// primary backend's observed p95 latency (no hedge is launched until a
// p95 estimate exists).
type Hedging struct {
	// MaxAttempts caps the total attempts (primary + hedges +
	// retries) per demand fetch. 0 means one attempt per backend;
	// values larger than the backend count wrap around the route
	// order, retrying backends.
	MaxAttempts int
	// Backoff is the pause before a retry that follows a *failed*
	// attempt, doubling per further retry. Hedges launch without
	// backoff — their whole point is not to wait for the failure.
	Backoff time.Duration
}

// BackendStats is a point-in-time snapshot of one backend's counters
// and link estimates.
type BackendStats struct {
	// Name is the backend's configured name.
	Name string
	// Demand counts demand fetch attempts dispatched to this backend
	// (including hedges and retries); Speculative counts speculative
	// fetches (batched items counted individually); Errors counts
	// failed attempts (cancelled hedge losers are not errors).
	Demand, Speculative, Errors int64
	// BatchCalls counts speculative FetchBatch invocations;
	// BatchedItems the items they carried. DemandBatchCalls and
	// DemandBatchedItems count the demand-priority batches
	// (FetchDemandBatch) and their coalesced keys separately — the two
	// paths have different failure semantics.
	BatchCalls, BatchedItems             int64
	DemandBatchCalls, DemandBatchedItems int64
	// HedgesLaunched counts hedge attempts raced against a slow
	// primary; HedgesWon counts the hedges that returned first.
	HedgesLaunched, HedgesWon int64
	// Retries counts failover attempts launched after an error.
	Retries int64
	// InFlight counts the attempts dispatched and not yet settled: the n
	// of the link's processor sharing that routing reads.
	InFlight int64
	// LatencySeconds is the EWMA fetch latency; LatencyP95Seconds the
	// ring-buffer p95 estimate hedge delays derive from.
	LatencySeconds, LatencyP95Seconds float64
	// Bandwidth is the link capacity in use (configured, or the smoothed
	// size/latency estimate); Rho the link's total utilisation ρ̂ and
	// RhoPrime its demand-only utilisation ρ̂′, both at snapshot time.
	Bandwidth, Rho, RhoPrime float64
}
