package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// startFront serves srv on the daemon's front end (wire loop, handoff,
// mux) over a loopback listener and returns its base URL.
func startFront(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	runFront(t, newFrontEnd(srv, ln), srv)
	return "http://" + ln.Addr().String()
}

// runFront serves fe until the test ends: then the front end drains,
// Serve returns, and the engines close — before the origins registered
// earlier do.
func runFront(t testing.TB, fe *frontEnd, srv *Server) {
	served := make(chan error, 1)
	go func() { served <- fe.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("front end shutdown: %v", err)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
		srv.Shutdown(ctx)
	})
}

// viaMux is a client whose every request carries Connection: close,
// which the wire loop hands to net/http: it reaches the mux adapters.
var viaMux = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// batchRecordHeaderLen is what httpfetch.WriteBatchItem puts in front of
// each payload: an 8-byte id and a 4-byte length.
const batchRecordHeaderLen = 12

func originPayload(id int64) []byte {
	return []byte(fmt.Sprintf("origin-object-%d", id))
}

// newTestOrigin serves /obj/{id} and the framed /batch wire, counting
// requests so tests can see which path the daemon exercised.
func newTestOrigin(t *testing.T, singles, batches *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", func(w http.ResponseWriter, r *http.Request) {
		if singles != nil {
			singles.Add(1)
		}
		var id int64
		if _, err := fmt.Sscanf(r.URL.Path, "/obj/%d", &id); err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		w.Write(originPayload(id))
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if batches != nil {
			batches.Add(1)
		}
		ids, err := httpfetch.ParseIDs(r.URL.Query().Get("ids"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, id := range ids {
			if err := httpfetch.WriteBatchItem(w, id, originPayload(int64(id))); err != nil {
				return
			}
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func oneSpaceConfig(originURL string) *Config {
	return &Config{
		Listen: "127.0.0.1:0",
		Spaces: []SpaceConfig{{
			Name: DefaultSpace,
			Backends: []BackendConfig{{
				Name: "origin", Type: "http", URL: originURL, BatchPath: "/batch",
				DemandTimeout:      Duration(5 * time.Second),
				SpeculativeTimeout: Duration(2 * time.Second),
			}},
			// A deliberately tiny cache: the end-to-end test cycles a
			// keyset much larger than it, so a revisit is a miss unless
			// the prefetcher got there first or the admission filter
			// kept the key — cache hits then measure prefetching more
			// than mere residency.
			CacheCapacity: 8,
			Shards:        1,
			Policy:        "adaptive-a",
			Bandwidth:     1e6,
		}},
	}
}

// The headline acceptance test: prefetchd booted in-process against a
// live httptest origin, fed a repeated key stream, must show a
// nonzero prefetch hit ratio and populated per-backend stats on its
// stats endpoint, then shut down without leaking a goroutine.
func TestDaemonEndToEnd(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	origin := newTestOrigin(t, nil, nil)
	srv, err := NewServer(oneSpaceConfig(origin.URL), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	get := func(key int64) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/obj/%d", front, key))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %d: %d %s", key, resp.StatusCode, body)
		}
		return body
	}

	// A strictly cyclic key stream over a keyset far larger than the
	// cache: after the first lap the Markov model predicts each
	// successor with probability ~1, far above the near-zero adaptive
	// threshold of an unloaded link, and the cache is small enough
	// that the successor is never still resident from the previous
	// lap — any hit is a prefetch landing.
	keys := make([]int64, 32)
	for i := range keys {
		keys[i] = int64(i + 1)
	}
	const laps = 15
	for lap := 0; lap < laps; lap++ {
		for _, k := range keys {
			if got := get(k); !bytes.Equal(got, originPayload(k)) {
				t.Fatalf("key %d: payload %q", k, got)
			}
			// A beat after each demand Get lets the speculative fetch
			// it planned land before the next key asks for it.
			time.Sleep(500 * time.Microsecond)
		}
	}

	resp, err := http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	st, ok := stats.Spaces[DefaultSpace]
	if !ok {
		t.Fatalf("stats missing the default space: %+v", stats)
	}
	if st.Requests != int64(laps*len(keys)) {
		t.Fatalf("requests = %d, want %d", st.Requests, laps*len(keys))
	}
	if st.PrefetchIssued == 0 {
		t.Fatalf("no prefetches issued (stats %+v)", st)
	}
	// The prefetch hit ratio: prefetched items consumed by demand,
	// either from cache (PrefetchUsed) or by joining the still
	// in-flight speculative fetch (Joins).
	if st.PrefetchUsed+st.Joins == 0 {
		t.Fatalf("prefetch used/joins = %d/%d, want a nonzero hit ratio (stats %+v)",
			st.PrefetchUsed, st.Joins, st)
	}
	if len(st.Backends) != 1 || st.Backends[0].Name != "origin" {
		t.Fatalf("backends = %+v", st.Backends)
	}
	if st.Backends[0].Demand == 0 || st.Backends[0].Speculative == 0 {
		t.Fatalf("backend demand/speculative = %d/%d, want both > 0",
			st.Backends[0].Demand, st.Backends[0].Speculative)
	}

	// Health endpoint answers while serving.
	hz, err := http.Get(front + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}
}

// policy: none is the one way to run a space without speculation (the
// predictor: "none" spelling it replaces was accepted and then ignored:
// the space prefetched anyway). The chain TestDaemonEndToEnd learns from
// must here reach /stats with nothing issued and nothing speculative at
// the origin.
func TestDaemonPolicyNoneIssuesNoPrefetch(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	var singles, batches atomic.Int64
	origin := newTestOrigin(t, &singles, &batches)
	cfg := oneSpaceConfig(origin.URL)
	cfg.Spaces[0].Policy = "none"
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	const keys, laps = 32, 5
	for lap := 0; lap < laps; lap++ {
		for k := int64(1); k <= keys; k++ {
			resp, err := http.Get(fmt.Sprintf("%s/obj/%d", front, k))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, originPayload(k)) {
				t.Fatalf("key %d: %d %q", k, resp.StatusCode, body)
			}
		}
	}

	resp, err := http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	st := stats.Spaces[DefaultSpace]
	if st.Requests != keys*laps {
		t.Fatalf("requests = %d, want %d", st.Requests, keys*laps)
	}
	if st.PrefetchIssued != 0 || st.Backends[0].Speculative != 0 {
		t.Fatalf("policy none issued %d prefetches, %d speculative fetches at the backend; want 0 (stats %+v)",
			st.PrefetchIssued, st.Backends[0].Speculative, st)
	}
	// The admission block: an 8-entry space's sketch is 192 bytes and
	// its window 2 entries, and a loop four times its size has landings
	// turned away (its first lap, before the sketch has seen a key).
	if a := stats.Admission[DefaultSpace]; a.SketchBytes != 192 || a.WindowEntries != 2 || a.DeclinedLandings == 0 {
		t.Fatalf("admission %+v; want a 192-byte sketch, a 2-entry window and declined landings", a)
	}
	// A cyclic stream four times the cache, nothing prefetched: every
	// miss is one the origin answered singly. Under plain LRU every
	// request would miss; the store's admission filter keeps some of the
	// loop resident, at most the cache's 8 keys a lap after the first.
	if st.Misses < keys*laps-8*(laps-1) || singles.Load() != st.Misses || batches.Load() != 0 || st.Hits+st.Misses != st.Requests {
		t.Fatalf("hits/misses = %d/%d, origin singles/batches = %d/%d; want at least %d misses, each a single fetch",
			st.Hits, st.Misses, singles.Load(), batches.Load(), keys*laps-8*(laps-1))
	}
}

// The daemon's /batch endpoint speaks the same wire the httpfetch
// adapter consumes, so a second fabric can use prefetchd itself as a
// batch-capable backend — the tiering property.
func TestDaemonBatchEndpoint(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	var originBatches atomic.Int64
	origin := newTestOrigin(t, nil, &originBatches)
	srv, err := NewServer(oneSpaceConfig(origin.URL), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	// Consume the daemon through the adapter: prefetchd as origin.
	tier, err := httpfetch.New(httpfetch.Config{BaseURL: front, BatchPath: "/batch"})
	if err != nil {
		t.Fatal(err)
	}
	items, err := tier.FetchBatch(context.Background(), []fetch.ID{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []int64{7, 8, 9} {
		if !bytes.Equal(items[i].Data.([]byte), originPayload(id)) {
			t.Fatalf("item %d = %+v", i, items[i])
		}
	}

	// The daemon's stats must account the keys as one multi-get.
	resp, err := http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if st := stats.Spaces[DefaultSpace]; st.MultiGets != 1 || st.Requests != 3 {
		t.Fatalf("multigets/requests = %d/%d, want 1/3", st.MultiGets, st.Requests)
	}
}

// A /batch reply's size is known before its first byte: it must carry a
// Content-Length and not go out chunked, however many records it holds
// (net/http adds the header itself only below 2 KiB), and the framed
// body must still decode.
func TestBatchReplyHasContentLength(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	origin := newTestOrigin(t, nil, nil)
	srv, err := NewServer(oneSpaceConfig(origin.URL), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	ids := make([]fetch.ID, 200)
	query := make([]string, len(ids))
	want := 0
	for i := range ids {
		ids[i] = fetch.ID(1000 + i)
		query[i] = strconv.Itoa(1000 + i)
		want += batchRecordHeaderLen + len(originPayload(int64(ids[i])))
	}
	resp, err := http.Get(front + "/batch?ids=" + strings.Join(query, ","))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Length") != strconv.Itoa(want) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %q (want %d), Transfer-Encoding %v (want none)",
			resp.Header.Get("Content-Length"), want, resp.TransferEncoding)
	}
	items, err := httpfetch.ReadBatch(resp.Body, ids, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !bytes.Equal(items[i].Data.([]byte), originPayload(int64(id))) {
			t.Fatalf("item %d = %+v", i, items[i])
		}
	}
}

// A /batch id list is outside input: one past the bound is refused
// with 400 before anything is parsed, fetched or counted, and a list at
// the bound is not refused for its size.
func TestBatchRejectsOversizedIDList(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	var originSingles, originBatches atomic.Int64
	origin := newTestOrigin(t, &originSingles, &originBatches)
	srv, err := NewServer(oneSpaceConfig(origin.URL), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	batch := func(n int) *httptest.ResponseRecorder {
		ids := strings.TrimSuffix(strings.Repeat("7,", n), ",")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch?ids="+ids, nil))
		return rec
	}
	if rec := batch(maxBatchIDs + 1); rec.Code != http.StatusBadRequest {
		t.Fatalf("%d ids: status %d, want 400", maxBatchIDs+1, rec.Code)
	}
	if n := originSingles.Load() + originBatches.Load(); n != 0 {
		t.Fatalf("the refused batch reached the origin (%d requests)", n)
	}
	if st := srv.spaces[DefaultSpace].engine.Stats(); st.Requests != 0 || st.MultiGets != 0 {
		t.Fatalf("the refused batch was counted: %+v", st)
	}
	if rec := batch(maxBatchIDs); rec.Code != http.StatusOK {
		t.Fatalf("%d ids: status %d, want 200: %s", maxBatchIDs, rec.Code, rec.Body)
	}
}

// Two key spaces with separate backends: /obj/{space}/{key} routes to
// the right engine, and /stats reports each space separately.
func TestDaemonSpaces(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	origin := newTestOrigin(t, nil, nil)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "41"), []byte("from-disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Listen: "127.0.0.1:0",
		Spaces: []SpaceConfig{
			{
				Name:      DefaultSpace,
				Bandwidth: 1e6,
				Backends:  []BackendConfig{{Name: "origin", Type: "http", URL: origin.URL}},
			},
			{
				Name:     "disk",
				Policy:   "none",
				Backends: []BackendConfig{{Name: "fs", Type: "fs", Root: dir}},
			},
		},
	}
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	resp, err := http.Get(front + "/obj/disk/41")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "from-disk" {
		t.Fatalf("disk space: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(front + "/obj/23")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, originPayload(23)) {
		t.Fatalf("default space: %d %q", resp.StatusCode, body)
	}
	// Unknown space and bad key are client errors, not engine errors.
	for path, want := range map[string]int{
		"/obj/nope/1": http.StatusNotFound,
		"/obj/abc":    http.StatusBadRequest,
	} {
		resp, err := http.Get(front + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	resp, err = http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsReply
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Spaces) != 2 {
		t.Fatalf("stats spaces = %v", stats.Spaces)
	}
	if st := stats.Spaces["disk"]; st.Requests != 1 || len(st.Backends) != 1 {
		t.Fatalf("disk stats = %+v", st)
	}
}

// A key the origin does not have is an answer, not a failure: a space
// on an fs root answers five missing keys in a row with 404, and a key
// the root has is then served.
func TestMissingKeysAreAnswers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "12"), []byte("twelve"), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := flag.NewFlagSet("prefetchd", flag.ContinueOnError)
	cfg, err := configFromArgs(fset, []string{"-fs-root", dir, "-policy", "none"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)
	get := func(path string) (int, string) {
		resp, err := http.Get(front + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for key := 1; key <= 5; key++ {
		if code, _ := get("/obj/" + strconv.Itoa(key)); code != http.StatusNotFound {
			t.Errorf("/obj/%d: status %d, want 404", key, code)
		}
	}
	if code, body := get("/obj/12"); code != http.StatusOK || body != "twelve" {
		t.Errorf("/obj/12 after five missing keys: %d %q, want 200 \"twelve\"", code, body)
	}
}

// Origin failures map onto statuses — a missing object keeps the
// origin's code, an unreachable origin is a 502, an attempt that
// outlives its budget a 504 — on both endpoints, and the reply tells
// the client the status and nothing else: the error's text, which
// names the origin's address, goes to the log.
func TestObjErrorMapping(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	missing := httptest.NewServer(http.HandlerFunc(http.NotFound))
	t.Cleanup(missing.Close)
	redirecting := httptest.NewServer(http.RedirectHandler("/elsewhere", http.StatusFound))
	t.Cleanup(redirecting.Close)
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); wedged.Close() })
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	down := "http://" + ln.Addr().String()
	ln.Close() // nothing listens there now

	for _, tc := range []struct {
		name, origin string
		want         int
	}{
		{"origin 404", missing.URL, http.StatusNotFound},
		{"origin 302", redirecting.URL, http.StatusBadGateway}, // not followed, not passed on
		{"origin down", down, http.StatusBadGateway},
		{"attempt timeout", wedged.URL, http.StatusGatewayTimeout},
	} {
		for _, batchPath := range []string{"", "/batch"} {
			tc, batchPath := tc, batchPath
			t.Run(tc.name+" origin-batch="+batchPath, func(t *testing.T) {
				var logged strings.Builder
				var mu sync.Mutex
				cfg := oneSpaceConfig(tc.origin)
				cfg.Spaces[0].Policy = "none"
				cfg.Spaces[0].Backends[0].BatchPath = batchPath
				cfg.Spaces[0].Backends[0].DemandTimeout = Duration(50 * time.Millisecond)
				srv, err := NewServer(cfg, func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					fmt.Fprintf(&logged, format+"\n", args...)
				})
				if err != nil {
					t.Fatal(err)
				}
				front := startFront(t, srv)
				originAddr := strings.TrimPrefix(tc.origin, "http://")
				_, originPort, _ := net.SplitHostPort(originAddr)
				for _, client := range []*http.Client{http.DefaultClient, viaMux} {
					for _, path := range []string{"/obj/1", "/batch?ids=1,2"} {
						resp, err := client.Get(front + path)
						if err != nil {
							t.Fatal(err)
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != tc.want {
							t.Errorf("%s: status %d, want %d", path, resp.StatusCode, tc.want)
						}
						if want := http.StatusText(tc.want) + "\n"; string(body) != want {
							t.Errorf("%s: body %q, want the status text %q alone", path, body, want)
						}
						if bytes.Contains(body, []byte(originPort)) || bytes.Contains(body, []byte("127.0.0.1")) {
							t.Errorf("%s: body %q names the origin %s", path, body, originAddr)
						}
					}
				}
				mu.Lock()
				defer mu.Unlock()
				if !strings.Contains(logged.String(), "GET /obj/1: ") || !strings.Contains(logged.String(), "GET /batch?ids=1,2: ") {
					t.Errorf("log does not carry both failures:\n%s", logged.String())
				}
			})
		}
	}
}

// Graceful shutdown drains: requests in flight when Shutdown begins, on
// the wire loop and behind a handoff, complete with their payloads; idle
// connections of both kinds are closed; Serve returns; the engines
// quiesce and close after the drain, and nothing leaks.
func TestDaemonShutdownDrains(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // wedge the origin until the test releases it
		w.Write([]byte("slow-payload"))
	}))
	t.Cleanup(origin.Close)
	cfg := oneSpaceConfig(origin.URL)
	cfg.Spaces[0].Policy = "none" // no speculative noise into the wedged origin
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	fe := newFrontEnd(srv, ln)
	served := make(chan error, 1)
	go func() { served <- fe.Serve() }()
	addr := ln.Addr().String()

	idleWire, idleMux := dialRaw(t, addr), dialRaw(t, addr)
	idleWire.send("GET /healthz HTTP/1.1\r\n" + hostLine)
	idleWire.reply("GET")
	idleMux.send("GET /stats HTTP/1.1\r\n" + hostLine)
	idleMux.reply("GET")

	got := make(chan string, 2)
	for i, client := range []*http.Client{http.DefaultClient, viaMux} {
		go func(url string, client *http.Client) {
			resp, err := client.Get(url)
			if err != nil {
				got <- "error: " + err.Error()
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			got <- string(body)
		}(fmt.Sprintf("http://%s/obj/%d", addr, i+1), client)
	}
	time.Sleep(50 * time.Millisecond) // let the requests reach the wedged origin

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- fe.Shutdown(ctx) }()

	// Shutdown must wait for the in-flight requests, not abort them; the
	// idle wire connection it closes at once.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while requests were in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	idleWire.expectClosed()
	close(release)
	for i := 0; i < 2; i++ {
		if body := <-got; body != "slow-payload" {
			t.Fatalf("in-flight request got %q", body)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	idleMux.expectClosed()
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	srv.Shutdown(ctx)
}

// NewServer cleans up engines already built when a later space fails
// to construct.
func TestNewServerPartialFailure(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	origin := newTestOrigin(t, nil, nil)
	cfg := &Config{
		Listen: "127.0.0.1:0",
		Spaces: []SpaceConfig{
			{Name: "ok", Bandwidth: 1e6, Backends: []BackendConfig{{Name: "o", Type: "http", URL: origin.URL}}},
			{Name: "broken", Backends: []BackendConfig{{Name: "fs", Type: "fs", Root: "/definitely/not/a/dir"}}},
		},
	}
	if _, err := NewServer(cfg, t.Logf); err == nil {
		t.Fatal("broken space accepted")
	}
}

// The engine options a config names must all be buildable — this
// catches a knob validated by ParseConfig but rejected by the engine.
func TestBuildEngineKnobs(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	dir := t.TempDir()
	for _, sc := range []SpaceConfig{
		{Name: "a", Policy: "adaptive-a", CacheCapacity: 64, CacheBytes: 1 << 20, SegmentBytes: 64 << 10,
			Shards: 4, Bandwidth: 100,
			Hedging:  &HedgingConfig{MaxAttempts: 2, Backoff: Duration(time.Millisecond)},
			Backends: []BackendConfig{{Name: "fs", Type: "fs", Root: dir}}},
		{Name: "b", Policy: "", Bandwidth: 100,
			Backends: []BackendConfig{{Name: "fs", Type: "fs", Root: dir}}},
		{Name: "c", Policy: "none",
			Backends: []BackendConfig{{Name: "fs", Type: "fs", Root: dir}}},
	} {
		sp, err := buildEngine(sc)
		if err != nil {
			t.Fatalf("space %q: %v", sc.Name, err)
		}
		eng := sp.engine
		if _, err := eng.Get(context.Background(), prefetcher.ID(404)); err == nil {
			t.Fatalf("space %q: fetch of a missing file succeeded", sc.Name)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("space %q: close: %v", sc.Name, err)
		}
	}
}

// HEAD /obj/{key} is the Content-Length probe: same status mapping as
// GET, correct length, no body.
func TestDaemonHeadObj(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	origin := newTestOrigin(t, nil, nil)
	cfg := oneSpaceConfig(origin.URL)
	cfg.Spaces[0].Policy = "none"
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	resp, err := http.Head(front + "/obj/12")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status = %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("HEAD returned a %d-byte body", len(body))
	}
	if want := fmt.Sprint(len(originPayload(12))); resp.Header.Get("Content-Length") != want {
		t.Fatalf("Content-Length = %q, want %q", resp.Header.Get("Content-Length"), want)
	}

	// The probe counts as a request and leaves the object resident: a
	// following GET is a cache hit.
	resp2, err := http.Get(front + "/obj/12")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(got, originPayload(12)) {
		t.Fatalf("GET after HEAD = %q", got)
	}
	sresp, err := http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsReply
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Spaces[DefaultSpace]
	if st.Requests != 2 || st.Hits != 1 {
		t.Fatalf("requests/hits = %d/%d, want 2/1 (HEAD then GET hit)", st.Requests, st.Hits)
	}

	// HEAD of a missing key maps the origin's status, like GET.
	resp3, err := http.Head(front + "/obj/abc")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("HEAD bad key = %d", resp3.StatusCode)
	}
}

// Objects larger than segment_bytes live in the slab store's boxed
// overflow, not the arena — and must still serve on every path once
// cached. Regression test: /batch used to 502 such objects on the hit
// request (the first, miss-driven request worked), because the multi
// byte path reported a cached oversized []byte as non-byte.
func TestDaemonSlabOversizedObject(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	big := bytes.Repeat([]byte("payload!"), 1024) // 8 KiB > the 1 KiB segments below
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(big)
	}))
	t.Cleanup(origin.Close)
	cfg := oneSpaceConfig(origin.URL)
	cfg.Spaces[0].Policy = "none"
	cfg.Spaces[0].Backends[0].BatchPath = ""
	cfg.Spaces[0].CacheBytes = 1 << 20
	cfg.Spaces[0].SegmentBytes = 1 << 10
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	// Twice: the first round misses to the origin, the second must be
	// served from the overflow-resident cache entry.
	for round := 0; round < 2; round++ {
		resp, err := http.Get(front + "/batch?ids=7")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: /batch = %d %q", round, resp.StatusCode, body[:min(len(body), 128)])
		}
		items, err := httpfetch.ReadBatch(bytes.NewReader(body), []fetch.ID{7}, int64(len(big)))
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if !bytes.Equal(items[0].Data.([]byte), big) {
			t.Fatalf("round %d: oversized payload mismatch", round)
		}
		resp, err = http.Get(front + "/obj/7")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, big) {
			t.Fatalf("round %d: /obj = %d, %d bytes", round, resp.StatusCode, len(body))
		}
		resp, err = http.Head(front + "/obj/7")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if want := fmt.Sprint(len(big)); resp.Header.Get("Content-Length") != want {
			t.Fatalf("round %d: HEAD Content-Length = %q, want %q", round, resp.Header.Get("Content-Length"), want)
		}
	}
}

// Every space mounts the slab store — one with explicit budgets and one
// whose config names no cache key at all, which gets the 64 MiB default
// byte bound and the store's own entry bound — and serves the same
// wire: GET, HEAD and the framed /batch all round-trip, and the payload
// path stays byte-for-byte correct under the arena store.
func TestDaemonSlabSpace(t *testing.T) {
	for name, tc := range map[string]struct {
		set  func(*SpaceConfig)
		want bytestore.Config
	}{
		"explicit budget": {
			func(sc *SpaceConfig) { sc.CacheBytes, sc.SegmentBytes, sc.CacheCapacity = 1<<20, 64<<10, 256 },
			bytestore.Config{CapacityBytes: 1 << 20, MaxEntries: 256, SegmentBytes: 64 << 10},
		},
		"no cache keys": {
			func(sc *SpaceConfig) { sc.CacheBytes, sc.SegmentBytes, sc.CacheCapacity = 0, 0, 0 },
			bytestore.Config{CapacityBytes: 64 << 20},
		},
	} {
		t.Run(name, func(t *testing.T) { testDaemonSlabSpace(t, tc.set, tc.want) })
	}
}

// TestDaemonStoreKeepsReReadKey holds the order a space's store evicts
// in: W-TinyLFU, a two-entry window in front of segmented LRU. A key
// read twice leaves the window for probation as one-shot keys fill the
// 8-entry bound, and once it is full a key counted once never displaces
// a resident, so a burst of one-shot keys as long as the whole bound
// leaves it resident. Under plain LRU the burst evicts it, and its next
// read goes to the origin.
func TestDaemonStoreKeepsReReadKey(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	var singles, batches atomic.Int64
	origin := newTestOrigin(t, &singles, &batches)
	cfg := oneSpaceConfig(origin.URL)
	cfg.Spaces[0].Policy = "none" // no speculation: the store alone decides
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)
	get := func(k int64) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/obj/%d", front, k))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, originPayload(k)) {
			t.Fatalf("key %d: %d %q", k, resp.StatusCode, body)
		}
	}
	hits := func() int64 {
		t.Helper()
		resp, err := http.Get(front + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats statsReply
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Spaces[DefaultSpace].Hits
	}

	const a = 1
	get(a)
	get(a) // a use, counted: a stays at the window's head
	for k := int64(100); k < 108; k++ {
		get(k)
	}
	trips, before := singles.Load()+batches.Load(), hits()
	get(a)
	if trips := singles.Load() + batches.Load() - trips; trips != 0 {
		t.Fatalf("key %d went to the origin %d time(s) after eight one-shot keys; want it still resident", a, trips)
	}
	if got := hits() - before; got != 1 {
		t.Fatalf("/stats hits rose by %d on the re-read of key %d; want 1", got, a)
	}
}

func testDaemonSlabSpace(t *testing.T, set func(*SpaceConfig), want bytestore.Config) {
	defer testutil.ExpectNoLeaks(t)
	origin := newTestOrigin(t, nil, nil)
	cfg := oneSpaceConfig(origin.URL)
	set(&cfg.Spaces[0])
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Spaces[0].store(); got != want {
		t.Fatalf("the space mounts %+v, want %+v", got, want)
	}
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)

	for lap := 0; lap < 3; lap++ {
		for k := int64(1); k <= 20; k++ {
			resp, err := http.Get(fmt.Sprintf("%s/obj/%d", front, k))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, originPayload(k)) {
				t.Fatalf("lap %d key %d: %d %q", lap, k, resp.StatusCode, body)
			}
		}
	}
	resp, err := http.Head(front + "/obj/5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if want := fmt.Sprint(len(originPayload(5))); resp.Header.Get("Content-Length") != want {
		t.Fatalf("slab HEAD Content-Length = %q, want %q", resp.Header.Get("Content-Length"), want)
	}

	tier, err := httpfetch.New(httpfetch.Config{BaseURL: front, BatchPath: "/batch"})
	if err != nil {
		t.Fatal(err)
	}
	items, err := tier.FetchBatch(context.Background(), []fetch.ID{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []int64{3, 4, 5} {
		if !bytes.Equal(items[i].Data.([]byte), originPayload(id)) {
			t.Fatalf("slab batch item %d = %+v", i, items[i])
		}
	}

	readStats := func() statsReply {
		sresp, err := http.Get(front + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats statsReply
		err = json.NewDecoder(sresp.Body).Decode(&stats)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	stats := readStats()
	if st := stats.Spaces[DefaultSpace]; st.Hits == 0 {
		t.Fatalf("no hits through the slab space (stats %+v)", st)
	}
	m := stats.Memory
	if m.OffheapBytes <= 0 || m.HeapGoalBytes == 0 || m.HeapAllocsBytes == 0 {
		t.Fatalf("/stats memory after a fill = %+v, want the slab's segments in offheap_bytes, the collector's heap goal and the bytes allocated so far", m)
	}
	// heap_allocs_bytes is cumulative: a second reading, after one more
	// /stats reply was built, is no smaller.
	if again := readStats().Memory; again.HeapAllocsBytes < m.HeapAllocsBytes {
		t.Fatalf("heap_allocs_bytes fell from %d to %d", m.HeapAllocsBytes, again.HeapAllocsBytes)
	}
}
