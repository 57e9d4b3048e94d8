package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/fsfetch"
	"repro/prefetcher/fetch/httpfetch"
)

// space is one running key space: its engine, the config it was built
// from, and the backend fetchers that hold connections to close.
type space struct {
	cfg      SpaceConfig
	engine   *prefetcher.Engine
	fetchers []io.Closer
}

// Server is the caching proxy: one engine per configured key space
// behind an HTTP front end.
//
//	GET /obj/{key}            — default space, single key
//	GET /obj/{space}/{key}    — named space, single key
//	HEAD /obj/…               — Content-Length probe, no body copy
//	GET /batch?ids=1,2,3      — default space, batched (framed wire)
//	GET /batch/{space}?ids=…  — named space, batched
//	GET /stats                — JSON engine stats per space
//	GET /healthz              — liveness
//
// The batch endpoint speaks the httpfetch wire format, so one
// prefetchd can be another's http backend (BatchPath: "/batch") and
// instances tier.
type Server struct {
	spaces  map[string]*space
	mux     *http.ServeMux
	started time.Time
	logf    func(format string, args ...any)
}

// NewServer builds every configured space's engine. On error all
// engines already built are closed.
func NewServer(cfg *Config, logf func(format string, args ...any)) (*Server, error) {
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		spaces:  make(map[string]*space, len(cfg.Spaces)),
		started: time.Now(),
		logf:    logf,
	}
	for _, sc := range cfg.Spaces {
		eng, fetchers, err := buildEngine(sc)
		if err != nil {
			s.closeEngines(context.Background())
			return nil, fmt.Errorf("space %q: %w", sc.Name, err)
		}
		s.spaces[sc.Name] = &space{cfg: sc, engine: eng, fetchers: fetchers}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", s.handleObj)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/batch/", s.handleBatch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// buildEngine assembles one space's engine from its config, returning
// with it the fetchers to close once the engine is closed. (On an error
// none has fetched yet, so none holds a connection.)
func buildEngine(sc SpaceConfig) (*prefetcher.Engine, []io.Closer, error) {
	var fetchers []io.Closer
	backends := make([]fetch.Backend, 0, len(sc.Backends))
	for _, bc := range sc.Backends {
		f, err := buildFetcher(bc)
		if err != nil {
			return nil, nil, fmt.Errorf("backend %q: %w", bc.Name, err)
		}
		if c, ok := f.(io.Closer); ok {
			fetchers = append(fetchers, c)
		}
		backends = append(backends, fetch.Backend{
			Name:               bc.Name,
			Fetcher:            f,
			Weight:             bc.Weight,
			Bandwidth:          bc.Bandwidth,
			DemandTimeout:      time.Duration(bc.DemandTimeout),
			SpeculativeTimeout: time.Duration(bc.SpeculativeTimeout),
		})
	}

	opts := []prefetcher.Option{prefetcher.WithBackends(backends...)}
	if sc.Routing == "latency" {
		opts = append(opts, prefetcher.WithRouting(fetch.RouteLatency))
	}
	switch {
	case sc.CacheBytes > 0:
		// Slab store: payloads in pointer-free segments under a byte
		// budget, entry count bounded by CacheCapacity when set. The
		// factory ceil-splits both budgets across shards.
		factory, err := bytestore.Factory(bytestore.Config{
			CapacityBytes: sc.CacheBytes,
			MaxEntries:    sc.CacheCapacity,
			SegmentBytes:  sc.SegmentBytes,
			Policy:        sc.CachePolicy,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("cache: %w", err)
		}
		opts = append(opts, prefetcher.WithCacheFactory(factory))
	case sc.CacheCapacity > 0:
		capacity, policy := sc.CacheCapacity, sc.CachePolicy
		if policy == "" {
			policy = "lru"
		}
		opts = append(opts, prefetcher.WithCacheFactory(func(shard, shards int) prefetcher.Cache {
			c, err := prefetcher.NewCacheWithPolicy(shardCapacity(capacity, shards), policy)
			if err != nil {
				panic(err) // policy name was validated at parse time
			}
			return c
		}))
	}
	switch sc.Predictor {
	case "", "markov":
		opts = append(opts, prefetcher.WithPredictor(prefetcher.NewMarkovPredictor()))
	case "lz":
		opts = append(opts, prefetcher.WithPredictor(prefetcher.NewLZPredictor()))
	case "ppm":
		arg := sc.PredictorArg
		if arg == 0 {
			arg = 2
		}
		opts = append(opts, prefetcher.WithPredictor(prefetcher.NewPPMPredictor(arg)))
	case "depgraph":
		arg := sc.PredictorArg
		if arg == 0 {
			arg = 4
		}
		opts = append(opts, prefetcher.WithPredictor(prefetcher.NewDependencyGraphPredictor(arg)))
	case "popularity":
		arg := sc.PredictorArg
		if arg == 0 {
			arg = 16
		}
		opts = append(opts, prefetcher.WithPredictor(prefetcher.NewPopularityPredictor(arg)))
	case "none":
		// engine default predictor with the no-prefetch policy below is
		// inert; nothing to wire.
	}
	switch sc.Policy {
	case "", "adaptive-a":
		opts = append(opts, prefetcher.WithPolicy(prefetcher.AdaptiveThreshold(prefetcher.ModelA())))
	case "adaptive-b":
		opts = append(opts, prefetcher.WithPolicy(prefetcher.AdaptiveThreshold(prefetcher.ModelB())))
	case "greedy":
		opts = append(opts, prefetcher.WithPolicy(prefetcher.GreedyThreshold(prefetcher.ModelA())))
	case "static":
		opts = append(opts, prefetcher.WithPolicy(prefetcher.StaticThreshold(sc.PolicyArg)))
	case "topk":
		opts = append(opts, prefetcher.WithPolicy(prefetcher.TopK(int(sc.PolicyArg))))
	case "none":
		opts = append(opts, prefetcher.WithPolicy(prefetcher.NoPrefetch()))
	}
	if sc.Shards > 0 {
		opts = append(opts, prefetcher.WithShards(sc.Shards))
	}
	if sc.Workers > 0 {
		opts = append(opts, prefetcher.WithWorkers(sc.Workers))
	}
	if sc.QueueDepth > 0 {
		opts = append(opts, prefetcher.WithQueueDepth(sc.QueueDepth))
	}
	if sc.MaxPrefetch > 0 {
		opts = append(opts, prefetcher.WithMaxPrefetch(sc.MaxPrefetch))
	}
	if sc.Bandwidth > 0 {
		opts = append(opts, prefetcher.WithBandwidth(sc.Bandwidth))
	}
	if sc.IdleWatermark > 0 {
		opts = append(opts, prefetcher.WithIdleWatermark(sc.IdleWatermark))
	}
	if h := sc.Hedging; h != nil {
		opts = append(opts, prefetcher.WithHedging(fetch.Hedging{
			Delay:       time.Duration(h.Delay),
			P95Multiple: h.P95Multiple,
			MaxAttempts: h.MaxAttempts,
			Backoff:     time.Duration(h.Backoff),
		}))
	}
	if b := sc.Breaker; b != nil {
		opts = append(opts, prefetcher.WithBreaker(fetch.Breaker{
			Threshold: b.Threshold,
			Cooldown:  time.Duration(b.Cooldown),
		}))
	}
	eng, err := prefetcher.New(nil, opts...)
	return eng, fetchers, err
}

// shardCapacity splits a space-wide cache capacity across shards,
// rounding up so the total never shrinks below the configured value.
func shardCapacity(total, shards int) int {
	per := (total + shards - 1) / shards
	if per < 1 {
		per = 1
	}
	return per
}

// buildFetcher constructs the adapter a BackendConfig names.
func buildFetcher(bc BackendConfig) (fetch.Fetcher, error) {
	switch bc.Type {
	case "http":
		return httpfetch.New(httpfetch.Config{
			BaseURL:      bc.URL,
			Path:         bc.Path,
			BatchPath:    bc.BatchPath,
			MaxBodyBytes: bc.MaxBodyBytes,
			MaxParallel:  bc.MaxParallel,
		})
	case "fs":
		return fsfetch.New(fsfetch.Config{
			Root:         bc.Root,
			Pattern:      bc.Pattern,
			MaxFileBytes: bc.MaxFileBytes,
		})
	default:
		return nil, fmt.Errorf("unknown backend type %q", bc.Type)
	}
}

// resolve maps a request's space segment ("" for the bare /obj/{key}
// and /batch forms) to its running space.
func (s *Server) resolve(spaceName string) (*space, bool) {
	if spaceName == "" {
		spaceName = DefaultSpace
	}
	sp, ok := s.spaces[spaceName]
	if !ok && spaceName == DefaultSpace && len(s.spaces) == 1 {
		// A single-space config serves the bare forms regardless of the
		// space's name, so flag-driven setups don't have to call their
		// one space "default".
		for _, only := range s.spaces {
			return only, true
		}
	}
	return sp, ok
}

// bufPool recycles response-assembly buffers across requests so the
// steady-state object path allocates neither a payload box nor a
// scratch buffer per hit. Pointers to slices, per staticcheck SA6002
// (a bare []byte would box on every Put).
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBufBytes caps what putBuf returns to the pool: an outlier
// response (one huge object, or a wide batch) must not pin a buffer of
// that size per pool slot for the rest of the process.
const maxPooledBufBytes = 1 << 20

// putBuf recycles a response buffer, dropping ones that grew past the
// pooling cap.
func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBufBytes {
		return
	}
	bufPool.Put(bp)
}

// handleObj serves GET and HEAD for /obj/{key} and /obj/{space}/{key}.
// GET copies the payload through the engine's byte path into a pooled
// buffer — on a slab-backed space a cache hit moves the bytes
// arena→buffer→socket with no interface boxing and no per-hit
// allocation. HEAD answers the Content-Length probe via GetBytesLen
// without copying the payload at all (residency, recency and hit
// accounting still behave as a GET hit).
func (s *Server) handleObj(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/obj/")
	spaceName, keyStr := "", rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		spaceName, keyStr = rest[:i], rest[i+1:]
	}
	key, err := strconv.ParseInt(keyStr, 10, 64)
	if err != nil {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	sp, ok := s.resolve(spaceName)
	if !ok {
		http.Error(w, "unknown space", http.StatusNotFound)
		return
	}
	if r.Method == http.MethodHead {
		n, err := sp.engine.GetBytesLen(r.Context(), prefetcher.ID(key))
		if err != nil {
			s.writeFetchError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.WriteHeader(http.StatusOK)
		return
	}
	bp := bufPool.Get().(*[]byte)
	data, err := sp.engine.GetBytes(r.Context(), prefetcher.ID(key), (*bp)[:0])
	if err != nil {
		putBuf(bp)
		s.writeFetchError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
	*bp = data[:0]
	putBuf(bp)
}

// maxBatchIDs bounds one /batch request's id list. The engine batches
// whatever it is handed, so the bound on outside input is set here,
// well above any session the batch wire's callers build (a page of a
// few dozen keys) and on the order of what the engine keeps pooled
// scratch for.
const maxBatchIDs = 1024

// batchRecordHeaderLen is what httpfetch.WriteBatchItem puts in front of
// each payload: an 8-byte id and a 4-byte length.
const batchRecordHeaderLen = 12

// handleBatch serves GET /batch?ids=… and GET /batch/{space}?ids=…
// through the engine's batched demand path, answering in the
// httpfetch wire format. Per-key failures fail the whole reply — the
// wire has no per-record error channel, and a batch-capable caller
// (another prefetchd) falls back per key on any batch error.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	spaceName := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/batch"), "/")
	sp, ok := s.resolve(spaceName)
	if !ok {
		http.Error(w, "unknown space", http.StatusNotFound)
		return
	}
	raw := r.URL.Query().Get("ids")
	// Counted before parsing: a request line can carry half a million
	// ids, and each would become parser output, a session key and a
	// demand fetch.
	if strings.Count(raw, ",") >= maxBatchIDs {
		http.Error(w, fmt.Sprintf("more than %d ids in one batch", maxBatchIDs), http.StatusBadRequest)
		return
	}
	ids, err := httpfetch.ParseIDs(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The whole session's payloads pack into one pooled buffer via the
	// engine's byte path; each record is then framed straight from its
	// ByteRange — no per-item boxing, no per-item payload copy.
	bp := bufPool.Get().(*[]byte)
	buf, ranges, err := sp.engine.GetMultiBytes(r.Context(), ids, (*bp)[:0], nil)
	*bp = buf[:0]
	if err != nil {
		putBuf(bp)
		s.writeFetchError(w, r, err)
		return
	}
	// The reply's size is known before its first byte, so it goes out
	// with a Content-Length and not chunked.
	size := 0
	for _, rg := range ranges {
		size += batchRecordHeaderLen + rg.Len
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	for i, rg := range ranges {
		if err := httpfetch.WriteBatchItem(w, ids[i], buf[rg.Off:rg.Off+rg.Len]); err != nil {
			putBuf(bp)
			return // client went away mid-reply
		}
	}
	putBuf(bp)
}

// statsReply is the /stats JSON shape: per-space engine snapshots
// plus process-level fields.
type statsReply struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Spaces        map[string]prefetcher.Stats `json:"spaces"`
}

// handleStats serves GET /stats. Stats() is wait-free, so this
// endpoint is safe to poll aggressively.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := statsReply{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Spaces:        make(map[string]prefetcher.Stats, len(s.spaces)),
	}
	for name, sp := range s.spaces {
		reply.Spaces[name] = sp.engine.Stats()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(reply)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// Shutdown quiesces and closes every space's engine. Call it after
// the HTTP listener has drained so no demand traffic is in flight.
func (s *Server) Shutdown(ctx context.Context) {
	s.closeEngines(ctx)
}

func (s *Server) closeEngines(ctx context.Context) {
	for name, sp := range s.spaces {
		if err := sp.engine.Quiesce(ctx); err != nil {
			s.logf("prefetchd: space %q: quiesce: %v", name, err)
		}
		if err := sp.engine.Close(); err != nil {
			s.logf("prefetchd: space %q: close: %v", name, err)
		}
		for _, f := range sp.fetchers {
			f.Close() // idle origin connections; nothing to report
		}
	}
}

// writeFetchError maps an engine error onto an HTTP status: origin
// 4xx/5xx pass through when the adapter surfaced one, a dead context
// is a gateway timeout, everything else a bad gateway. The client gets
// the status text alone; the error, which names the origin, is logged.
func (s *Server) writeFetchError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusBadGateway
	var se *httpfetch.StatusError
	switch {
	case errors.As(err, &se) && se.Code >= 400:
		code = se.Code
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	s.logf("prefetchd: %s %s: %v", r.Method, r.URL.RequestURI(), err)
	http.Error(w, http.StatusText(code), code)
}
