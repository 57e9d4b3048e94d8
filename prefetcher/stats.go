package prefetcher

import (
	"fmt"

	"repro/prefetcher/fetch"
)

// Stats is a point-in-time snapshot of the engine's counters and online
// estimates. The counters (Requests … PrefetchErrors, CacheLen,
// InFlight) are maintained per shard on the hot path and summed here;
// the estimates (Lambda … NF) and Threshold come from the engine's one
// shared controller and are global regardless of the shard count;
// Backends carries each link's own, and admission reads their ρ̂′
// weighted by bandwidth.
type Stats struct {
	// Requests counts Get calls; Hits and Misses partition them by
	// cache outcome (a Get that joins an in-flight prefetch counts as a
	// miss and a Join).
	Requests, Hits, Misses int64
	// Joins counts demand Gets that attached to an already in-flight
	// speculative fetch instead of refetching.
	Joins int64
	// PrefetchIssued counts speculative fetches handed to the worker
	// pool; PrefetchUsed counts prefetched items later consumed by a
	// demand request; PrefetchWasted counts prefetched items evicted
	// without ever being used; PrefetchDropped counts prefetches shed
	// because the queue was full; PrefetchErrors counts speculative
	// fetches that failed.
	PrefetchIssued, PrefetchUsed, PrefetchWasted, PrefetchDropped, PrefetchErrors int64
	// Lambda is the estimated request rate λ̂; MeanSize the estimated
	// mean item size ŝ̄; HPrime the Section-4 tagged-cache estimate ĥ′
	// of the no-prefetch hit ratio; RhoPrime the controller's global
	// no-prefetch utilisation estimate ρ̂′ = (1−ĥ′)λ̂ŝ̄/b against the
	// WithBandwidth capacity; NF the prefetches per request. λ̂, ŝ̄ and
	// n̄(F) are rates over the last 10 s of the engine's clock.
	Lambda, MeanSize, HPrime, RhoPrime, NF float64
	// Threshold is the paper's cutoff p̂_th for the engine's interaction
	// model — ρ̂′ (model A) plus ĥ′/n̄(C) (model B) — at that global
	// RhoPrime. The threshold in force substitutes the Backends[i].RhoPrime
	// weighted by bandwidth; an unconfigured link's reads high under load.
	Threshold float64
	// CacheLen is the resident item count summed across shard caches;
	// InFlight the number of fetches (demand and speculative) currently
	// outstanding, summed likewise.
	CacheLen, InFlight int
	// Shards is the engine's shard count (see WithShards).
	Shards int
	// Predictor names the engine's access model (its Name).
	Predictor string
	// MultiGets counts GetMulti/GetMultiInto/GetMultiBytes sessions
	// (the singleton views run the same read core but are not counted
	// here); BatchedKeys the session misses dispatched through coalesced
	// demand batches (FetchBatch on the demand path, 2+ keys at a time).
	// Each session also counts every one of its keys in
	// Requests/Hits/Misses/Joins exactly as singleton Gets would.
	MultiGets, BatchedKeys int64
	// Backends holds one entry per fetch-fabric backend — always at
	// least one: the WithBackends links, or "origin" for New's fetcher
	// — with its traffic counters, hedging outcomes, in-flight count and —
	// the load-aware piece — that link's own ρ̂ and ρ̂′, which admission
	// weighs by bandwidth into the fabric's ρ̂′.
	Backends []fetch.BackendStats
}

// HitRatio returns Hits/Requests, or 0 before any request.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// Accuracy returns PrefetchUsed/PrefetchIssued, or 0 before any
// prefetch.
func (s Stats) Accuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(s.PrefetchIssued)
}

func (s Stats) String() string {
	out := fmt.Sprintf(
		"requests=%d hit=%.3f λ̂=%.3g ĥ′=%.3f ρ̂′=%.3f p̂_th=%.3f prefetch[issued=%d used=%d wasted=%d dropped=%d err=%d]",
		s.Requests, s.HitRatio(), s.Lambda, s.HPrime, s.RhoPrime, s.Threshold,
		s.PrefetchIssued, s.PrefetchUsed, s.PrefetchWasted, s.PrefetchDropped,
		s.PrefetchErrors)
	if s.MultiGets > 0 {
		out += fmt.Sprintf(" multi[sessions=%d batched=%d]", s.MultiGets, s.BatchedKeys)
	}
	for _, b := range s.Backends {
		out += fmt.Sprintf(" %s[ρ̂=%.3f ρ̂′=%.3f demand=%d spec=%d hedge=%d/%d]",
			b.Name, b.Rho, b.RhoPrime, b.Demand, b.Speculative,
			b.HedgesWon, b.HedgesLaunched)
	}
	return out
}

// EventType classifies an engine event.
type EventType int

// Engine event types, delivered to the WithEventHook callback.
const (
	// EventHit: a Get was served from cache.
	EventHit EventType = iota
	// EventMiss: a Get missed and was fetched on demand.
	EventMiss
	// EventJoin: a Get attached to an in-flight speculative fetch.
	EventJoin
	// EventPrefetchIssued: a candidate was dispatched to the pool.
	EventPrefetchIssued
	// EventPrefetchDone: a speculative fetch landed in the cache.
	EventPrefetchDone
	// EventPrefetchDropped: the queue was full and the candidate shed.
	EventPrefetchDropped
	// EventPrefetchError: a speculative fetch failed (Err is set).
	EventPrefetchError
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventHit:
		return "hit"
	case EventMiss:
		return "miss"
	case EventJoin:
		return "join"
	case EventPrefetchIssued:
		return "prefetch-issued"
	case EventPrefetchDone:
		return "prefetch-done"
	case EventPrefetchDropped:
		return "prefetch-dropped"
	case EventPrefetchError:
		return "prefetch-error"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one observable engine action.
type Event struct {
	Type EventType
	ID   ID
	// Err is set for EventPrefetchError.
	Err error
}
