package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/offheap"
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
	stores   []*bytestore.Store // one a shard, for /stats' admission block
}

// Server is the caching proxy: one engine per configured key space
// behind an HTTP front end.
//
//	GET /obj/{key}            — default space, single key
//	GET /obj/{space}/{key}    — named space, single key
//	HEAD /obj/…               — Content-Length probe, no body copy
//	GET /batch?ids=1,2,3      — default space, batched (framed wire)
//	GET /batch/{space}?ids=…  — named space, batched
//	GET /stats                — JSON engine stats per space, process memory
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
		sp, err := buildEngine(sc)
		if err != nil {
			s.closeEngines(context.Background())
			return nil, fmt.Errorf("space %q: %w", sc.Name, err)
		}
		s.spaces[sc.Name] = sp
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", s.handleCore)
	mux.HandleFunc("/batch", s.handleCore)
	mux.HandleFunc("/batch/", s.handleCore)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// buildEngine assembles one space's engine from its config, with the
// fetchers to close once the engine is closed and the stores it mounts.
// (On an error none has fetched yet, so none holds a connection.)
func buildEngine(sc SpaceConfig) (*space, error) {
	sp := &space{cfg: sc}
	backends := make([]fetch.Backend, 0, len(sc.Backends))
	for _, bc := range sc.Backends {
		f, err := buildFetcher(bc)
		if err != nil {
			return nil, fmt.Errorf("backend %q: %w", bc.Name, err)
		}
		if c, ok := f.(io.Closer); ok {
			sp.fetchers = append(sp.fetchers, c)
		}
		backends = append(backends, fetch.Backend{
			Name:               bc.Name,
			Fetcher:            f,
			Bandwidth:          bc.Bandwidth,
			DemandTimeout:      time.Duration(bc.DemandTimeout),
			SpeculativeTimeout: time.Duration(bc.SpeculativeTimeout),
		})
	}

	opts := []prefetcher.Option{prefetcher.WithBackends(backends...)}
	factory, err := bytestore.Factory(sc.store())
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	opts = append(opts, prefetcher.WithCacheFactory(func(shard, shards int) prefetcher.Cache {
		st := factory(shard, shards).(*bytestore.Store)
		sp.stores = append(sp.stores, st)
		return st
	}))
	policy := prefetcher.AdaptiveThreshold(prefetcher.ModelA())
	if sc.Policy == "none" {
		policy = prefetcher.NoPrefetch()
	}
	opts = append(opts, prefetcher.WithPolicy(policy))
	if sc.Shards > 0 {
		opts = append(opts, prefetcher.WithShards(sc.Shards))
	}
	if sc.Bandwidth > 0 {
		opts = append(opts, prefetcher.WithBandwidth(sc.Bandwidth))
	}
	if h := sc.Hedging; h != nil {
		opts = append(opts, prefetcher.WithHedging(fetch.Hedging{
			MaxAttempts: h.MaxAttempts,
			Backoff:     time.Duration(h.Backoff),
		}))
	}
	if sp.engine, err = prefetcher.New(nil, opts...); err != nil {
		return nil, err
	}
	return sp, nil
}

// defaultCacheBytes is a space's byte budget when its config names none.
const defaultCacheBytes = 64 << 20

// store is the one cache every space mounts: the slab store, payloads in
// pointer-free segments under a byte budget, in segmented-LRU order with
// half the entries protected (probation's tail out first), entry count
// bounded by CacheCapacity when set (else by the store's own default, a
// 64th of the budget). The factory ceil-splits both budgets across
// shards.
func (sc SpaceConfig) store() bytestore.Config {
	cfg := bytestore.Config{CapacityBytes: sc.CacheBytes, MaxEntries: sc.CacheCapacity, SegmentBytes: sc.SegmentBytes}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = defaultCacheBytes
	}
	return cfg
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

// replyBuf is one reply being assembled: b[:headRoom] is room for its
// head, b[headRoom:] its body. Either front end draws one per request
// for the reply core (obj, batch) to fill; handleCore then passes the
// body to net/http, the wire loop sends head and body in one Write.
type replyBuf struct{ b []byte }

// headRoom fits the longest head the wire loop renders (an error reply
// with a 31-byte status text: about 200 bytes).
const headRoom = 256

// bufPool recycles reply buffers, so the steady-state object path
// allocates neither a payload box nor a scratch buffer per hit.
var bufPool = sync.Pool{
	New: func() any { return &replyBuf{b: make([]byte, headRoom, 4096)} },
}

// maxPooledBufBytes caps what putBuf returns to the pool: one huge
// object or wide batch must not pin its buffer for the process's life.
const maxPooledBufBytes = 1 << 20

func putBuf(rb *replyBuf) {
	if cap(rb.b) <= maxPooledBufBytes {
		rb.b = rb.b[:headRoom]
		bufPool.Put(rb)
	}
}

// batchScratch is what one /batch needs beside its reply: the parsed
// ids, and the payloads the engine packs with one range per id.
type batchScratch struct {
	ids      []prefetcher.ID
	ranges   []prefetcher.ByteRange
	payloads []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// The reply core: obj and batch turn one request into one reply. They
// append the body to rb and return the status and the Content-Length —
// the body's length, except for a HEAD that found its object. What is
// not a 200 carries http.Error's body, the message and a newline.
// handleCore and the wire loop differ only in how that reaches the socket.

func fail(rb *replyBuf, status int, msg string) (int, int) {
	rb.b = append(append(rb.b[:headRoom], msg...), '\n')
	return status, len(msg) + 1
}

// failFetch maps an engine error onto a status: origin 4xx/5xx pass
// through, a key the origin does not have (an fs backend's missing
// file) is a not found, a dead context is a gateway timeout, everything
// else a bad gateway. The client gets the status text alone; the error,
// which names the origin, is logged.
func (s *Server) failFetch(rb *replyBuf, request string, err error) (int, int) {
	code := http.StatusBadGateway
	var se *httpfetch.StatusError
	switch {
	case errors.As(err, &se) && se.Code >= 400:
		code = se.Code
	case errors.Is(err, fs.ErrNotExist):
		code = http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	s.logf("prefetchd: %s: %v", request, err)
	return fail(rb, code, http.StatusText(code))
}

// obj answers GET and HEAD for /obj/{key} and /obj/{space}/{key}. GET
// copies the payload through the engine's byte path into rb — on a
// slab-backed space a hit moves the bytes arena→buffer→socket with no
// boxing and no allocation. HEAD is the Content-Length probe: no
// payload copy, residency, recency and accounting as a GET's.
func (s *Server) obj(ctx context.Context, rb *replyBuf, head bool, path string) (status, n int) {
	rest := strings.TrimPrefix(path, "/obj/")
	i := strings.IndexByte(rest, '/') + 1 // 0 for the bare form
	spaceName, keyStr := strings.TrimSuffix(rest[:i], "/"), rest[i:]
	key, err := strconv.ParseInt(keyStr, 10, 64)
	if err != nil {
		return fail(rb, http.StatusBadRequest, "bad key")
	}
	sp, ok := s.resolve(spaceName)
	if !ok {
		return fail(rb, http.StatusNotFound, "unknown space")
	}
	if head {
		if n, err = sp.engine.GetBytesLen(ctx, prefetcher.ID(key)); err != nil {
			return s.failFetch(rb, "HEAD "+path, err)
		}
		return http.StatusOK, n
	}
	if rb.b, err = sp.engine.GetBytes(ctx, prefetcher.ID(key), rb.b); err != nil {
		return s.failFetch(rb, "GET "+path, err)
	}
	return http.StatusOK, len(rb.b) - headRoom
}

// maxBatchIDs bounds one /batch request's id list — outside input the
// engine would batch whole — well above any session the wire's callers
// build, on the order of what the engine keeps pooled scratch for.
const maxBatchIDs = 1024

// batch answers GET /batch?ids=… and GET /batch/{space}?ids=… (raw is
// the ids parameter) through the engine's batched demand path, in the
// httpfetch wire format. Per-key failures fail the whole reply — the
// wire has no per-record error channel, and a batch-capable caller
// (another prefetchd) falls back per key on any batch error.
func (s *Server) batch(ctx context.Context, rb *replyBuf, path string, raw []byte) (status, n int) {
	sp, ok := s.resolve(strings.TrimPrefix(strings.TrimPrefix(path, "/batch"), "/"))
	if !ok {
		return fail(rb, http.StatusNotFound, "unknown space")
	}
	// Counted before parsing: a request line can carry half a million
	// ids, each to become a session key and a demand fetch.
	if bytes.Count(raw, []byte(",")) >= maxBatchIDs {
		return fail(rb, http.StatusBadRequest, fmt.Sprintf("more than %d ids in one batch", maxBatchIDs))
	}
	sc := batchPool.Get().(*batchScratch)
	defer putBatch(sc)
	var err error
	if sc.ids, err = httpfetch.AppendIDs(sc.ids[:0], raw); err != nil {
		return fail(rb, http.StatusBadRequest, err.Error())
	}
	// The payloads pack into pooled scratch via the engine's byte path
	// and are framed from there into rb, whole before the head is written:
	// a record the wire cannot carry makes a 502, not a 200 cut short.
	if sc.payloads, sc.ranges, err = sp.engine.GetMultiBytes(ctx, sc.ids, sc.payloads, sc.ranges); err == nil {
		err = frameBatch(rb, sc.ids, sc.payloads, sc.ranges)
	}
	if err != nil {
		return s.failFetch(rb, "GET "+path+"?ids="+string(raw), err)
	}
	return http.StatusOK, len(rb.b) - headRoom
}

func putBatch(sc *batchScratch) {
	if cap(sc.payloads) <= maxPooledBufBytes {
		batchPool.Put(sc)
	}
}

// frameBatch appends to rb one record per id: its range of payloads.
func frameBatch(rb *replyBuf, ids []prefetcher.ID, payloads []byte, ranges []prefetcher.ByteRange) (err error) {
	for i, rg := range ranges {
		if rb.b, err = httpfetch.AppendBatchItem(rb.b, ids[i], payloads[rg.Off:rg.Off+rg.Len]); err != nil {
			return err
		}
	}
	return nil
}

// handleCore is the reply core's mux adapter: it serves /obj/ and /batch
// on connections the wire loop handed off.
func (s *Server) handleCore(w http.ResponseWriter, r *http.Request) {
	batch, head := strings.HasPrefix(r.URL.Path, "/batch"), r.Method == http.MethodHead
	if r.Method != http.MethodGet && (batch || !head) {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rb := bufPool.Get().(*replyBuf)
	var status, n int
	if batch {
		status, n = s.batch(r.Context(), rb, r.URL.Path, []byte(r.URL.Query().Get("ids")))
	} else {
		status, n = s.obj(r.Context(), rb, head, r.URL.Path)
	}
	h := w.Header()
	h.Set("Content-Type", payloadType)
	if status != http.StatusOK {
		h.Set("Content-Type", errorType)
		h.Set("X-Content-Type-Options", "nosniff")
	}
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	w.Write(rb.b[headRoom:]) // net/http drops it for a HEAD; a client gone mid-reply is its to notice
	putBuf(rb)
}

// statsReply is the /stats JSON shape: per-space engine snapshots
// plus process-level fields.
type statsReply struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Memory        memoryStats                 `json:"memory"`
	Admission     map[string]admissionStats   `json:"admission"`
	Spaces        map[string]prefetcher.Stats `json:"spaces"`
}

// admissionStats is one space's admission filter, summed over its
// shards' stores: the demand landings it turned away, and the bytes its
// count-min sketches take on the Go heap (8 per entry of the bound).
type admissionStats struct {
	DeclinedLandings int64 `json:"declined_landings"`
	SketchBytes      int   `json:"sketch_bytes"`
}

// memoryStats splits the process's memory without a debugger: the cache
// tables mapped off the Go heap (slab segments, Markov rows), the heap's
// live bytes, the heap size the collector lets it reach before its next
// cycle, the cycles run so far, and the bytes allocated on the heap since
// the process started — read twice, their difference over the requests
// served between is the garbage a request makes. The runtime figures
// come from runtime/metrics, which, unlike ReadMemStats, does not stop
// the world.
type memoryStats struct {
	OffheapBytes    int64  `json:"offheap_bytes"`
	HeapLiveBytes   uint64 `json:"heap_live_bytes"`
	HeapGoalBytes   uint64 `json:"heap_goal_bytes"`
	GCCycles        uint64 `json:"gc_cycles"`
	HeapAllocsBytes uint64 `json:"heap_allocs_bytes"`
}

func readMemory() memoryStats {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return memoryStats{offheap.Mapped(), s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

// handleStats serves GET /stats. Stats() is wait-free, so this
// endpoint is safe to poll aggressively.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := statsReply{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Memory:        readMemory(),
		Admission:     make(map[string]admissionStats, len(s.spaces)),
		Spaces:        make(map[string]prefetcher.Stats, len(s.spaces)),
	}
	for name, sp := range s.spaces {
		reply.Spaces[name] = sp.engine.Stats()
		var a admissionStats
		for _, st := range sp.stores {
			declined, sketch := st.Admission()
			a.DeclinedLandings += declined
			a.SketchBytes += sketch
		}
		reply.Admission[name] = a
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(reply)
}

// What both tiers send: the Content-Type of a payload and of an error
// (http.Error's, which goes with nosniff), and the /healthz reply.
const (
	payloadType, errorType   = "application/octet-stream", "text/plain; charset=utf-8"
	healthzType, healthzBody = "text/plain", "ok\n"
)

// handleHealthz serves /healthz on connections the wire loop handed off.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", healthzType)
	w.Header().Set("Content-Length", strconv.Itoa(len(healthzBody))) // set here, net/http puts it where the wire loop does
	io.WriteString(w, healthzBody)
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
