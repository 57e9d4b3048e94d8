// Package prefetcher is the public face of the reproduction: a
// concurrency-safe, context-aware speculative prefetch engine built
// around the paper's adaptive threshold rule — prefetch exclusively the
// items whose access probability exceeds p_th = ρ′ (interaction model
// A) or ρ′ + h′/n̄(C) (model B), where both quantities are estimated
// online while prefetching runs (the Section-4 tagged-cache algorithm).
//
// The Engine wires four small pluggable interfaces together:
//
//	Fetcher   — retrieves items from the origin (yours to implement)
//	Predictor — online access model (a bounded Markov-1 table provided)
//	Cache     — bounded client-side store (one slab-indexed store, SLRU by default)
//	Clock     — time source (wall clock by default, manual for tests)
//
// Construction uses functional options:
//
//	eng, err := prefetcher.New(fetcher,
//		prefetcher.WithBandwidth(50),
//		prefetcher.WithCache(prefetcher.NewLRUCache(1024)),
//		prefetcher.WithPredictor(prefetcher.NewMarkovPredictor()),
//		prefetcher.WithWorkers(8),
//	)
//
// The hot path is Get: it records the request with the online
// estimator, serves the item from cache or fetches it on demand, then
// dispatches speculative fetches for every above-threshold prediction
// through a bounded worker pool. A demand Get for an item whose
// speculative fetch is already in flight joins that fetch instead of
// refetching. Stats returns a snapshot of the live estimates (ĥ′,
// ρ̂′, p̂_th) and the prefetch hit/waste counters.
//
// There is one read path. Get, GetBytes, GetBytesLen, GetMulti /
// GetMultiInto and GetMultiBytes are five views over one core (read, in
// multi.go) that serves a session of keys — a singleton is the session
// of one — and differ only in the sink the outcome lands in: boxed
// Items, bytes appended to a caller buffer with a ByteRange per key, or
// a length. The core checks the context and the closed flag, reads the
// clock once, feeds the predictor the session's ids in request order
// (exactly the stream the equivalent Get loop would produce), then
// gathers: the keys are grouped by shard so each shard lock is taken
// once, under which hits are served and every miss either joins the
// in-flight fetch for its key or registers its own. Counters and
// estimators are folded on atomics after the locks drop, every key
// counted in Requests/Hits/Misses/Joins the same way whichever view
// asked. The owned misses are coalesced into one BatchFetcher demand
// batch per backend (a one-key share, a backend that cannot batch and a
// malformed reply all degrade to the hedged per-key Fetch), joined keys
// wait out their flights — re-checking the cache and the in-flight
// table, and finally fetching themselves, when a flight fails — and the
// outcome lands in the sink. Results align index-for-index with the
// requested ids; failures are per key — a *MultiError carries one
// KeyError per failed id while successful keys are still filled in
// (the singleton views return that one key's cause bare), and duplicate
// ids within a session are fetched once.
//
// One speculative plan is made per request, predicted from its last
// id, and it is dispatched iff that id was served: a request whose
// planning key failed adds no speculative load to the origin that just
// failed it. Stats.MultiGets and Stats.BatchedKeys account for the
// session views.
//
// A plan that queues a fetch starts it before the read returns:
// dispatch yields the P once, so the worker runs before, not after, a
// server's reply. The caller then waits on the global run queue behind
// every runnable goroutine, and a fetcher that never parks runs its
// whole fetch inside the yield.
//
// # Byte views and buffer ownership
//
// Payload-oriented callers use the byte path: GetBytes appends the
// item's []byte payload to a caller-owned dst buffer and returns the
// extended slice, GetBytesLen probes the stored length without copying
// a body, and GetMultiBytes packs a whole session into one buffer with
// a ByteRange per key. The ownership contract is strict and symmetric:
//
//   - The engine never retains dst or any slice derived from it. What
//     GetBytes returns is the caller's buffer, safe to reuse, pool, or
//     mutate freely — the copy happened under the shard lock, so the
//     bytes cannot be torn by a concurrent eviction or overwrite. A
//     miss may borrow dst for the length of the call: over a copying
//     cache and lending backends (see bytes.go) the origin's bytes are
//     read straight into it and copied once into the cache, and a
//     fetch that fails leaves dst's length alone.
//   - The caller, in turn, never receives a view into the engine's
//     storage. There is no zero-copy read through the public API —
//     internal arena views (slab.View) die inside the shard critical
//     section; by the time GetBytes returns, the payload has been
//     copied out. Callers must not assume otherwise and must not
//     retain slices handed to a Fetcher's Item.Data after returning
//     it: once an item is admitted, the storage layer owns that copy.
//
// The byte path serves items whose Data is []byte; an item holding any
// other payload type fails with ErrNotBytes after full hit accounting
// (use Get for mixed-type workloads). With a pooled dst the whole path
// — hit classification, copy, accounting, speculative planning — is
// allocation-free in steady state, gated by TestGetBytesAllocFree.
//
// Every cache the package builds is one store: NewLRUCache, NewSLRUCache
// and the default are bounded by entries, repro/prefetcher/bytestore's
// (which prefetchd mounts) by bytes as well. It packs []byte payloads
// into large segments off the Go heap (repro/internal/slab) and indexes
// them through one flat integer table that also carries the LRU or
// segmented-LRU order, so the garbage collector scans neither a value
// nor a policy node per entry; any other payload is held by reference
// beside it. The byte budget evicts by segment rotation and the entry
// bound from probation's tail first, both through one per-id callback
// that keeps the engine's size and waste accounting exact. bytestore's
// store and the default are W-TinyLFU: a demand miss displaces a
// resident only once its key has been read before, through a recency
// window, and a landing the filter turns away leaves no record.
//
// Internally the keyed state — cache, in-flight dedup, size and
// used/wasted accounting — is partitioned across power-of-two shards
// (WithShards, default GOMAXPROCS-derived), each behind its own mutex,
// so concurrent Gets on disjoint keys do not contend. The adaptive
// policy's estimates stay global: one shared controller reads λ̂, ŝ̄
// and n̄(F) as rates over the last 10 s of the engine's clock, from
// atomic counters, and ĥ′ from the tagged-cache counts, so
// Threshold and Stats report one globally consistent operating point
// at any shard count.
//
// The access model is shared across shards but is not a serialisation
// point. Whatever WithPredictor received is normalised once, at New,
// into one planner, and the read core calls it at one site: observe the
// request's ids in order, return the top WithMaxPrefetch candidates
// conditioned on the last. The built-in model, NewMarkovPredictor's, is
// unwrapped and called directly, lock-free from all shards at once —
// internally it linearises the request stream (an atomic swap chain) so
// cross-shard transitions are still learned, its count table is striped
// by key, and it predicts as part of the observation, conditioned on
// the observed id. Its memory follows what it has learned: a flat
// pointer-free table of 8-successor rows that grows only while its rows
// are trained (seen twice), so a scan leaves it at 512 rows, and never
// past 65 536 (about 7 MiB). A new state takes the least-visited row
// beside it, and a full state's smallest count gives way to a new
// successor — exact while states have at most 8 distinct successors and
// no once-seen row has been displaced; p̂ discounts counts ≤ 5 by
// Good–Turing, so a one-off jump clears no low threshold. Any other
// Predictor is a plugin: it implements Observe, Name and PredictTopInto,
// is called from all shards at once and takes its own lock if it needs
// one. The engine observes the request's ids, asks for the bounded
// prefix the policies can actually admit, appended into the request's
// pooled buffer, drops whatever the answer holds beyond it and converts
// the rest.
//
// The demand hot path is allocation-free in steady state: prediction
// candidates and per-key state live in one pooled scratch per request,
// in-flight fetches are pooled flight objects whose completion
// channels are recycled when no joiner
// forced a close, and the per-shard counters are cache-line-padded
// atomics bumped outside the shard mutexes — which also makes Stats a
// wait-free snapshot: it reads no locks, never stalls a Get, and is
// exact whenever traffic quiesces.
//
// The origin side is always the fetch fabric (package
// repro/prefetcher/fetch, whose ID, Item, Fetcher, FetcherFunc and
// BatchFetcher this package aliases): the backends named with
// WithBackends, or New's single Fetcher as the one backend "origin" on
// the WithBandwidth link — the two constructions are the same engine.
// The fabric sends each fetch to the backend of shortest expected delay
// on the paper's processor-sharing link, the least (in-flight + 1)/b
// with b each link's bandwidth, configured or measured, with failover
// and hedged retries on the demand path (WithHedging
// — the next backend is raced once the preferred one overruns its
// observed p95 latency, the loser cancelled via context), and batch
// coalescing of adjacent speculative candidates for backends
// implementing BatchFetcher. Each backend link carries its own
// latency, bandwidth and utilisation estimators, and the admission
// threshold is evaluated once per plan against the links' measured
// demand-only ρ̂′, weighted by the same b (Fabric.RhoPrime; on one link,
// its own), before the admitted candidates are routed. An unconfigured
// link divides by its measured goodput, which falls with load, so it reads
// above the global (1−ĥ′)λ̂ŝ̄/b of Stats.RhoPrime and Threshold on a
// loaded link and below it on an idle one; truer readings won no load on
// internal/vlink's TestRuleSweep. Stats.Backends[i].RhoPrime are the numbers in
// force, and what feeds them is written once: every backend call the
// fabric makes, whatever its entry point, is admitted, counted and
// recorded on its link by one function and settled by another, and
// the in-flight count routing reads rises in the one and falls in the
// other. Per-backend counters and link estimates appear in
// Stats.Backends. Each
// fetch.Backend can additionally bound its attempts: DemandTimeout
// caps every demand attempt (each hedge, retry and demand batch gets
// its own budget under the caller's context, so a stuck connection
// becomes a failover) and SpeculativeTimeout independently caps
// speculative fetches and batches.
//
// # Backend adapters
//
// Two real-backend adapters satisfy the fabric's Fetcher/BatchFetcher
// contract out of the box. Package repro/prefetcher/fetch/httpfetch
// maps ids onto GET requests against an HTTP origin over its own
// pooled HTTP/1.1 wire — keep-alive connections on a bounded free
// list, a canonical 200's head read in place and any other handed to
// net/http's http.ReadResponse, no http.Transport underneath, no
// goroutine per connection and no allocation per fetch into a lent
// buffer while consecutive fetches on a connection share a context; by design
// no HTTP/2, no redirects followed, no HTTP_PROXY, no Accept-Encoding —
// with bounded body reads, and batches either through a framed wire
// endpoint or bounded parallel fan-out; repro/prefetcher/fetch/fsfetch
// maps ids onto bounded whole-file reads under a root directory. Both
// also implement the optional fetch.IntoFetcher/BatchIntoFetcher: lent
// a buffer, they read a body into it — the caller's own reply buffer
// on a GetBytes miss — instead of into a slice of their own. An adapter must
// honour ctx cancellation promptly (hedge losers and expired attempt
// budgets cancel through it), be safe for concurrent use from demand,
// hedge and speculative-worker goroutines at once, and return one
// Item per requested id in request order from FetchBatch — a short,
// misordered or failed batch fails whole, which the demand path then
// degrades to per-key fallback fetches. Command cmd/prefetchd wires
// these adapters into a runnable caching-proxy daemon, whose spaces run
// AdaptiveThreshold(ModelA()) or NoPrefetch: on TestRuleSweep no other
// rule beats the former at any load.
//
// # Invariants
//
// The package keeps the concurrency and allocation invariants below.
// Each names the gate that holds it: one of the repo's two static
// analyzers (cmd/prefetchvet, built from internal/lint, run over the
// module by its TestTreeClean), go vet, a -race test, a goroutine-leak
// check, an alloc gate or a layout test.
//
//   - The per-request paths allocate nothing in steady state, or no more
//     than a stated ceiling; buffers on them are caller-supplied or
//     drawn from a sync.Pool. The alloc gates (AllocFree and
//     AllocCeiling tests, run without -race) measure each path. A hit:
//     TestGetHitAllocFree, TestGetBytesAllocFree,
//     TestGetMultiAllocFree, TestGetMultiBytesAllocFree,
//     TestPluginPredictorHitAllocFree and bytestore's
//     TestSlabGetBytesAllocFree (0). Hits and misses over 50 of the
//     admission sketch's halvings, every allocation of the phase
//     counted: TestGetBytesPhaseAllocFree (0). A demand miss:
//     TestGetBytesMissAllocFree (lent 0; owned 2, the origin's slice and
//     its box; a lent payload larger than a segment 2, the store's
//     clone and box; a two-key session, one demand batch, 0). A
//     speculative landing: TestSpeculativeLandingAllocFree (1, the
//     channel Quiesce waits on). What a hit's plan sets off,
//     TestPlanAllocCeiling: a shed 0, a batch across shards 1
//     (Quiesce's), a failed prefetch 1 (Quiesce's), a join 3; and for
//     dispatch's closed arms TestDispatchClosedAllocFree (0). A batch
//     dispatch that finds its plan resident:
//     TestFabricBatchDispatchAllocFree (0). The HEAD probe:
//     TestGetBytesAllocFree's GetBytesLen row (0). A failed demand fetch:
//     TestGetBytesMissAllocFree's failed row (2, the session's error
//     report). Stats: TestEngineStatsAllocCeiling (1, the Backends
//     slice). The predictor: TestPredictTopIntoAllocFree (0; PredictTop
//     with no buffer 1) and internal/predict's TestMarkovUpkeepAllocFree.
//     The fabric's attempt bracket, arm by arm, is prefetcher/fetch's
//     TestFabricAllocCeiling (0, but for a hedged race 11 and a
//     DemandTimeout 4).
//   - No blocking operation runs while a shard mutex is held, and
//     every shard-mutex Lock pairs with an Unlock on all exit paths;
//     the queue push in dispatch — the one send on the job queue —
//     happens under a shard lock via non-blocking select precisely to
//     respect this (lockscope).
//   - Lock order is acyclic (lockorder). No path holds two locks at
//     once: a shard mutex, the engine's quiesce lock and the fabric's
//     backend and estimator locks are all leaves, and the planner calls
//     a plugin before the gather takes any shard lock. If a nesting
//     is ever needed, the one the design leaves room for is shard.mu →
//     Engine.qmu, never the reverse. The Section-4 estimator's mutex
//     is not reachable from the engine at all: the unused mark of a
//     shard's resident record is the tag, and the engine writes only
//     the estimator's two atomic counters. The read core
//     holds at most one shard mutex at a time (gatherMulti groups keys
//     so each shard's classification completes before the next lock),
//     and the write core — dispatch registering candidates, land and
//     failJob settling them — locks each key's shard individually.
//     Every shard lock is released by the function that took it.
//   - The per-shard counter pads to whole 64-byte cache lines, so two
//     shards' counters never share a line (TestCounterFillsCacheLine).
//   - A word accessed atomically is never accessed plainly: every
//     atomic is a typed atomic.Int64/Uint64/Int32/Bool, which stays
//     8-aligned on 32-bit platforms too (TestTypedAtomicsOnly), whose
//     copy go vet's copylocks refuses, and whose plain write beside an
//     atomic one the race detector reports in the concurrent tests
//     (TestConcurrentGets, TestFabricConcurrentUse among them).
//     Fields a struct's mutex serialises are plain-only.
//   - Pooled objects — flights, request scratch, speculative jobs —
//     are returned to their pool on every path and never touched
//     after the Put. A transfer of ownership counts as a Put: a pooled
//     job pushed to the queue is the worker's, and the pusher reads
//     nothing from it afterwards — what dispatch still needs it reads
//     from its caller's id buffer. A pooled object that is not returned
//     shows as an allocation in the AllocFree gates; one touched after
//     its Put or its push is a data race, which
//     TestDispatchOwnsNothingAfterPush and the concurrent tests find
//     under -race.
//   - Library code never mints context.Background()/TODO(): contexts
//     flow in from the caller, and the engine's own lifecycle root is
//     created once in New and cancelled in Close. A fetch cut off from
//     its caller's context outlives the cancellation that should end it
//     (TestContextCancellation and the fabric's cancel tests time out);
//     one cut off from the engine's outlives Close
//     (TestCloseCancelsSpeculativeFetch).
//   - Every goroutine has a lifecycle tie: workers are
//     WaitGroup-accounted and hedged fetches run under a deferred-cancel
//     context. Close reaps them all; the lifecycle tests assert the reap
//     with testutil.ExpectNoLeaks, and
//     TestHedgeRacesSecondBackendAndCancelsLoser that a hedge's loser is
//     cancelled.
//   - Channel ownership is single-writer: nothing sends on a channel
//     another function may close, and library-code sends are never
//     unconditional — each runs in a select with an escape arm or on a
//     channel whose buffer bounds it. A violation panics ("send on
//     closed channel") or parks a goroutine for good, which the hedging
//     tests, their leak checks and their timeouts see.
//
// For offline capacity planning — what threshold, what gain, what
// cost, from known parameters instead of live estimates — use Planner.
package prefetcher
