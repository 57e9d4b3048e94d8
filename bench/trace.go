package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/slab"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// The traced run replays a workload's stream, single-threaded and at
// the request rate the daemon run measured, through an in-process
// engine assembled the way cmd/prefetchd.buildEngine assembles one.
// Spans are recorded from this package only, at the seams the engine
// offers: around GetBytes/GetMultiBytes, in the Cache the cache factory
// returns, in the Fetcher the backend holds, and in the origin handler.
// The predictor, controller and estimator are not wrapped: a wrapped
// predictor is not an internalPredictor, which would push the engine
// off its built-in dispatch — a different program. Their costs come
// from the isolated replays in layers.go.

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // the span that caused this one; 0 for a root
	Req    int64  `json:"req"`    // the request it belongs to; 0 for speculative work
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Outcome classifies a request span: hit, join, miss; for a batch
	// session, hit when every key hit and miss otherwise.
	Outcome string `json:"outcome,omitempty"`
}

// spanRef names the span and request a callee should attach to.
type spanRef struct{ span, req int64 }

// current is the request now being replayed. Cache calls carry no
// context, so a call is attributed to the request iff it is for one of
// the request's own keys; calls for other keys (candidate residency
// probes, speculative inserts from worker goroutines) are recorded
// without a parent and so stay inside the engine's self time.
type current struct {
	ref  spanRef
	keys []int64
}

type spanKey struct{}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	cur    atomic.Pointer[current]
	// inflight maps the first key of a fetch in progress to its span, so
	// the origin handler — which sees only an HTTP request — can name
	// its parent. The engine never has two fetches of one key in flight.
	inflight sync.Map

	puts, evictions atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17)}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// cacheSpan records one call into the cache for key id.
func (t *tracer) cacheSpan(name string, id int64, start time.Time) {
	end := time.Now()
	var ref spanRef
	if cur := t.cur.Load(); cur != nil {
		for _, k := range cur.keys {
			if k == id {
				ref = cur.ref
				break
			}
		}
	}
	t.add(span{ID: t.nextID.Add(1), Parent: ref.span, Req: ref.req, Name: name, Start: t.since(start), End: t.since(end)})
}

// originSpan records one origin handler call; first is the first key it
// served.
func (t *tracer) originSpan(first int64, start, end time.Time) {
	var ref spanRef
	if v, ok := t.inflight.Load(first); ok {
		ref = v.(spanRef)
	}
	t.add(span{ID: t.nextID.Add(1), Parent: ref.span, Req: ref.req, Name: "origin.handler", Start: t.since(start), End: t.since(end)})
}

// tracedCache is the Cache (and ByteCache) the traced engine's cache
// factory returns: a bytestore.Store with a span around every call.
type tracedCache struct {
	inner *bytestore.Store
	tr    *tracer
}

var _ prefetcher.ByteCache = (*tracedCache)(nil)

func (c *tracedCache) Get(id prefetcher.ID) (any, bool) {
	start := time.Now()
	v, ok := c.inner.Get(id)
	c.tr.cacheSpan("bytestore.Get", int64(id), start)
	return v, ok
}

func (c *tracedCache) GetBytes(id prefetcher.ID, dst []byte) ([]byte, bool) {
	start := time.Now()
	out, ok := c.inner.GetBytes(id, dst)
	c.tr.cacheSpan("bytestore.GetBytes", int64(id), start)
	return out, ok
}

func (c *tracedCache) BytesLen(id prefetcher.ID) (int, bool) {
	start := time.Now()
	n, ok := c.inner.BytesLen(id)
	c.tr.cacheSpan("bytestore.BytesLen", int64(id), start)
	return n, ok
}

func (c *tracedCache) Put(id prefetcher.ID, value any) {
	start := time.Now()
	c.inner.Put(id, value)
	c.tr.puts.Add(1)
	c.tr.cacheSpan("bytestore.Put", int64(id), start)
}

func (c *tracedCache) Contains(id prefetcher.ID) bool {
	start := time.Now()
	ok := c.inner.Contains(id)
	c.tr.cacheSpan("bytestore.Contains", int64(id), start)
	return ok
}

func (c *tracedCache) Len() int { return c.inner.Len() }

func (c *tracedCache) OnEvict(fn func(prefetcher.ID)) {
	c.inner.OnEvict(func(id prefetcher.ID) {
		c.tr.evictions.Add(1)
		fn(id)
	})
}

// tracedFetcher is the backend's Fetcher: an httpfetch.Client with a
// span around every call. It implements BatchFetcher because the
// client does.
type tracedFetcher struct {
	inner *httpfetch.Client
	tr    *tracer
}

var _ fetch.BatchFetcher = (*tracedFetcher)(nil)

// begin opens a fetch span for the call whose first key is first. A
// demand fetch carries the request's span in its context; a speculative
// one runs under the engine's own context and has no parent.
func (f *tracedFetcher) begin(ctx context.Context, first int64) (id int64, ref spanRef, start time.Time) {
	ref, _ = ctx.Value(spanKey{}).(spanRef)
	id = f.tr.nextID.Add(1)
	f.tr.inflight.Store(first, spanRef{span: id, req: ref.req})
	return id, ref, time.Now()
}

func (f *tracedFetcher) end(name string, first, id int64, ref spanRef, start time.Time) {
	end := time.Now()
	f.tr.inflight.Delete(first)
	f.tr.add(span{ID: id, Parent: ref.span, Req: ref.req, Name: name, Start: f.tr.since(start), End: f.tr.since(end)})
}

func (f *tracedFetcher) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	sid, ref, start := f.begin(ctx, int64(id))
	item, err := f.inner.Fetch(ctx, id)
	f.end("httpfetch.Fetch", int64(id), sid, ref, start)
	return item, err
}

func (f *tracedFetcher) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	if len(ids) == 0 {
		return f.inner.FetchBatch(ctx, ids)
	}
	sid, ref, start := f.begin(ctx, int64(ids[0]))
	items, err := f.inner.FetchBatch(ctx, ids)
	f.end("httpfetch.FetchBatch", int64(ids[0]), sid, ref, start)
	return items, err
}

// buildEngine assembles an engine for sp against origin o exactly as
// cmd/prefetchd.buildEngine does for sp.daemonFlags(): one http backend
// named "origin", the bytestore factory, the Markov predictor, the
// adaptive model-A threshold. With a tracer the cache and the fetcher
// are wrapped. The returned stores are the per-shard slabs the factory
// built, for their SlabStats.
func buildEngine(sp spec, o *origin, tr *tracer) (*prefetcher.Engine, *[]*bytestore.Store, error) {
	cfg := httpfetch.Config{BaseURL: o.url}
	if sp.originBatch {
		cfg.BatchPath = "/batch"
	}
	client, err := httpfetch.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var fetcher fetch.Fetcher = client
	if tr != nil {
		fetcher = &tracedFetcher{inner: client, tr: tr}
	}
	factory, err := bytestore.Factory(bytestore.Config{CapacityBytes: sp.cacheBytes, MaxEntries: sp.cacheEntries})
	if err != nil {
		return nil, nil, err
	}
	stores := new([]*bytestore.Store)
	eng, err := prefetcher.New(nil,
		prefetcher.WithBackends(fetch.Backend{Name: "origin", Fetcher: fetcher}),
		prefetcher.WithCacheFactory(func(shard, shards int) prefetcher.Cache {
			st := factory(shard, shards).(*bytestore.Store)
			*stores = append(*stores, st)
			if tr != nil {
				return &tracedCache{inner: st, tr: tr}
			}
			return st
		}),
		prefetcher.WithPredictor(prefetcher.NewMarkovPredictor()),
		prefetcher.WithPolicy(prefetcher.AdaptiveThreshold(prefetcher.ModelA())),
		prefetcher.WithBandwidth(sp.bandwidth),
	)
	if err != nil {
		return nil, nil, err
	}
	return eng, stores, nil
}

// replayCounts is how many requests of each workload the in-process
// replays run.
var replayCounts = map[string]int{"hot-obj": 20000, "chain-obj": 20000, "page-batch": 2500, "scan-miss": 5000}

// replayResult is one in-process replay: request durations in ns by
// outcome, and — when traced — the spans and the cache's churn.
type replayResult struct {
	hit, miss, join []float64 // Engine.GetBytes
	multiHitPerKey  []float64 // Engine.GetMultiBytes, every key a hit, ÷ keys
	multiMiss       []float64 // Engine.GetMultiBytes, at least one key fetched
	stats           prefetcher.Stats
	slab            slab.Stats // summed over shards
	puts, evictions int64
	spans           []span
}

// durations returns every request's duration, whatever its outcome.
func (r *replayResult) durations() []float64 {
	var all []float64
	for _, s := range [][]float64{r.hit, r.miss, r.join, r.multiMiss} {
		all = append(all, s...)
	}
	return all
}

// replay runs n requests of sp's stream through a fresh in-process
// engine, one every period (the daemon run's measured mean, so that the
// engine's rate estimate — and with it the admission threshold — sits
// where the daemon's did). A nil tracer gives the untraced timings.
func replay(ctx context.Context, sp spec, seed uint64, n int, period time.Duration, tr *tracer) (res *replayResult, err error) {
	o, err := startOrigin(sp.size, tr)
	if err != nil {
		return nil, err
	}
	defer o.stop()
	eng, stores, err := buildEngine(sp, o, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := eng.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("replay %s: close: %w", sp.name, cerr)
		}
	}()

	res = &replayResult{}
	st := sp.newStream(seed)
	var keys []int64
	var ids []prefetcher.ID
	var buf []byte
	var ranges []prefetcher.ByteRange
	scratch := make([]byte, sp.size)
	before := eng.Stats()
	next := time.Now()
	for i := 0; i < n; i++ {
		// Sleeping in the kernel, not spinning: with the processor handed
		// back, the speculative workers and the origin's goroutines run,
		// and the network poller with them, as they do in the daemon
		// while a client thinks.
		if d := time.Until(next); d > 0 {
			think(d)
		}
		next = next.Add(period)
		keys = st.next(keys)
		rctx := ctx
		var root span
		if tr != nil {
			root = span{ID: tr.nextID.Add(1), Req: int64(i + 1)}
			ref := spanRef{span: root.ID, req: root.Req}
			tr.cur.Store(&current{ref: ref, keys: append([]int64(nil), keys...)})
			rctx = context.WithValue(ctx, spanKey{}, ref)
		}
		start := time.Now()
		if sp.batch {
			ids = ids[:0]
			for _, k := range keys {
				ids = append(ids, prefetcher.ID(k))
			}
			buf, ranges, err = eng.GetMultiBytes(rctx, ids, buf[:0], ranges[:0])
		} else {
			buf, err = eng.GetBytes(rctx, prefetcher.ID(keys[0]), buf[:0])
		}
		end := time.Now()
		if tr != nil {
			tr.cur.Store(nil)
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: request %d: %w", sp.name, i, err)
		}
		if err := checkReplayReply(sp, keys, buf, ranges, i%fullCheckEvery == 0, scratch); err != nil {
			return nil, fmt.Errorf("replay %s: request %d: %w", sp.name, i, err)
		}
		after := eng.Stats()
		d := float64(end.Sub(start).Nanoseconds())
		var outcome string
		switch {
		case sp.batch && after.Hits-before.Hits == int64(len(keys)):
			outcome = "hit"
			res.multiHitPerKey = append(res.multiHitPerKey, d/float64(len(keys)))
		case sp.batch:
			outcome = "miss"
			res.multiMiss = append(res.multiMiss, d)
		case after.Hits > before.Hits:
			outcome = "hit"
			res.hit = append(res.hit, d)
		case after.Joins > before.Joins:
			outcome = "join"
			res.join = append(res.join, d)
		default:
			outcome = "miss"
			res.miss = append(res.miss, d)
		}
		before = after
		if tr != nil {
			root.Name = "engine.GetBytes"
			if sp.batch {
				root.Name = "engine.GetMultiBytes"
			}
			root.Start, root.End, root.Outcome = tr.since(start), tr.since(end), outcome
			tr.add(root)
		}
	}
	if err := eng.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("replay %s: quiesce: %w", sp.name, err)
	}
	res.stats = eng.Stats()
	for _, s := range *stores {
		ss := s.SlabStats()
		res.slab.Rotations += ss.Rotations
		res.slab.RotateEvicted += ss.RotateEvicted
	}
	if tr != nil {
		res.puts, res.evictions = tr.puts.Load(), tr.evictions.Load()
		tr.mu.Lock()
		res.spans = tr.spans
		tr.mu.Unlock()
	}
	return res, nil
}

// checkReplayReply verifies what the engine returned for keys.
func checkReplayReply(sp spec, keys []int64, buf []byte, ranges []prefetcher.ByteRange, full bool, scratch []byte) error {
	if !sp.batch {
		return checkPayload(buf, keys[0], sp.size, full, scratch)
	}
	if len(ranges) != len(keys) {
		return fmt.Errorf("%d byte ranges for %d keys", len(ranges), len(keys))
	}
	for i, rg := range ranges {
		if rg.Off < 0 || rg.Off+rg.Len > len(buf) {
			return fmt.Errorf("key %d: byte range %+v outside the %d-byte buffer", keys[i], rg, len(buf))
		}
		if err := checkPayload(buf[rg.Off:rg.Off+rg.Len], keys[i], sp.size, full, scratch); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, for every span, its duration minus the part of it
// that its direct children cover (overlapping children counted once).
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.End - s.Start - covered)
	}
	return self
}

// spanSummary aggregates spans of one name and outcome.
type spanSummary struct {
	Name       string  `json:"name"`
	Outcome    string  `json:"outcome,omitempty"`
	Count      int     `json:"count"`
	MedianNs   float64 `json:"median_ns"`
	SelfNs     float64 `json:"self_median_ns"`
	Parentless int     `json:"parentless"`
}

// summarize groups spans by name and outcome: how many, the median
// duration and the median self time.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	type key struct{ name, outcome string }
	durs := map[key][]float64{}
	selfs := map[key][]float64{}
	orphans := map[key]int{}
	for _, s := range spans {
		k := key{s.Name, s.Outcome}
		durs[k] = append(durs[k], float64(s.End-s.Start))
		selfs[k] = append(selfs[k], self[s.ID])
		if s.Parent == 0 && s.Outcome == "" {
			orphans[k]++
		}
	}
	out := make([]spanSummary, 0, len(durs))
	for k, d := range durs {
		out = append(out, spanSummary{Name: k.name, Outcome: k.outcome, Count: len(d),
			MedianNs: median(d), SelfNs: median(selfs[k]), Parentless: orphans[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Outcome < out[j].Outcome
	})
	return out
}

// summaryValue finds one aggregate in a summary.
func summaryValue(sum []spanSummary, name, outcome string, self bool) float64 {
	for _, s := range sum {
		if s.Name == name && s.Outcome == outcome {
			if self {
				return s.SelfNs
			}
			return s.MedianNs
		}
	}
	return 0
}

// writeSpans writes the span file for one workload.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedLayers runs the untraced and the traced replay of sp and
// returns the per-layer metrics they give, the span summary, and the
// spans themselves.
func tracedLayers(ctx context.Context, sp spec, seed uint64, period time.Duration) (values, []spanSummary, []span, error) {
	n := replayCounts[sp.name]
	plain, err := replay(ctx, sp, seed, n, period, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	traced, err := replay(ctx, sp, seed, n, period, newTracer())
	if err != nil {
		return nil, nil, nil, err
	}
	sum := summarize(traced.spans)
	root := "engine.GetBytes"
	if sp.batch {
		root = "engine.GetMultiBytes"
	}
	m := values{}
	m.set("engine.getbytes_hit_ns", median(plain.hit))
	m.set("engine.getbytes_miss_ns", median(plain.miss))
	m.set("engine.getmultibytes_hit_ns_per_key", median(plain.multiHitPerKey))
	m.set("engine.self_hit_ns", summaryValue(sum, root, "hit", true))
	m.set("engine.self_miss_ns", summaryValue(sum, root, "miss", true))
	m.set("bytestore.getbytes_ns", summaryValue(sum, "bytestore.GetBytes", "", false))
	m.set("bytestore.put_ns", summaryValue(sum, "bytestore.Put", "", false))
	m.set("bytestore.evictions_per_put", ratio(float64(traced.evictions), float64(traced.puts)))
	m.set("slab.rotations_per_kput", 1000*ratio(float64(traced.slab.Rotations), float64(traced.puts)))
	m.set("slab.rotate_evicted_per_kput", 1000*ratio(float64(traced.slab.RotateEvicted), float64(traced.puts)))
	// Tracing overhead on the engine's most common path here: hits where
	// the workload has them, every request where it does not.
	base, with := plain.hit, traced.hit
	if sp.batch {
		base, with = plain.multiHitPerKey, traced.multiHitPerKey
	}
	if len(base) < minBeyond || len(with) < minBeyond {
		base, with = plain.durations(), traced.durations()
	}
	m.set("loadgen.trace_overhead_frac", ratio(median(with), median(base))-1)
	return m, sum, traced.spans, nil
}
