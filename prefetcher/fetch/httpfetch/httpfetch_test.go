package httpfetch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher/fetch"
)

// testPayload is the deterministic object body the test origins serve.
func testPayload(id int64) []byte {
	return []byte(fmt.Sprintf("object-%d-payload", id))
}

// originMux serves /obj/{id} and /batch with the framed wire, counting
// single and batch requests.
func originMux(singles, batches *atomic.Int64) *http.ServeMux {
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
		w.Write(testPayload(id))
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if batches != nil {
			batches.Add(1)
		}
		ids, err := ParseIDs(r.URL.Query().Get("ids"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, id := range ids {
			if err := WriteBatchItem(w, id, testPayload(int64(id))); err != nil {
				return
			}
		}
	})
	return mux
}

// newOrigin starts an httptest origin over originMux.
func newOrigin(t *testing.T, singles, batches *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(originMux(singles, batches))
	t.Cleanup(srv.Close)
	return srv
}

func newClient(t testing.TB, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                    // no base URL
		{BaseURL: "ftp://x"},                  // bad scheme
		{BaseURL: "http://"},                  // no host
		{BaseURL: "http://x", Path: "/obj"},   // no %d
		{BaseURL: "http://x", Path: "/%d/%d"}, // two verbs
		{BaseURL: "http://x", Path: "/%s"},    // wrong verb
		{BaseURL: "http://x", MaxBodyBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	if _, err := New(Config{BaseURL: "http://x:9"}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestFetch(t *testing.T) {
	srv := newOrigin(t, nil, nil)
	c := newClient(t, Config{BaseURL: srv.URL})
	item, err := c.Fetch(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	want := testPayload(42)
	if !bytes.Equal(item.Data.([]byte), want) {
		t.Fatalf("payload %q, want %q", item.Data, want)
	}
	if item.ID != 42 || item.Size != float64(len(want)) {
		t.Fatalf("item id/size = %d/%v, want 42/%d", item.ID, item.Size, len(want))
	}
}

func TestFetchStatusError(t *testing.T) {
	srv := newOrigin(t, nil, nil)
	c := newClient(t, Config{BaseURL: srv.URL, Path: "/missing/%d"})
	_, err := c.Fetch(context.Background(), 1)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want StatusError 404", err)
	}
	// A 404 says the origin has no such key, as fsfetch's missing file
	// does; no other status does.
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v does not match fs.ErrNotExist", err)
	}
	if errors.Is(&StatusError{Code: http.StatusGone}, fs.ErrNotExist) {
		t.Fatal("a 410 matches fs.ErrNotExist")
	}
}

func TestFetchBodyBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 100))
	}))
	t.Cleanup(srv.Close)
	c := newClient(t, Config{BaseURL: srv.URL, MaxBodyBytes: 64})
	if _, err := c.Fetch(context.Background(), 1); err == nil {
		t.Fatal("oversized body accepted")
	}
	// A chunked (unknown-length) oversize reply must also be refused.
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush() // force chunked: no Content-Length
		w.Write(make([]byte, 100))
	}))
	t.Cleanup(chunked.Close)
	c2 := newClient(t, Config{BaseURL: chunked.URL, MaxBodyBytes: 64})
	if _, err := c2.Fetch(context.Background(), 1); err == nil {
		t.Fatal("oversized chunked body accepted")
	}
}

// Cancellation must abandon the request promptly — this is the
// property hedging and the per-attempt timeouts depend on.
func TestFetchCancelPrompt(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newClient(t, Config{BaseURL: srv.URL})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Fetch(ctx, 1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Fetch did not return after cancel")
	}
}

func TestFetchBatchWire(t *testing.T) {
	var singles, batches atomic.Int64
	srv := newOrigin(t, &singles, &batches)
	c := newClient(t, Config{BaseURL: srv.URL, BatchPath: "/batch"})
	ids := []fetch.ID{3, 1, 7}
	items, err := c.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(ids) {
		t.Fatalf("%d items, want %d", len(items), len(ids))
	}
	for i, it := range items {
		if it.ID != ids[i] || !bytes.Equal(it.Data.([]byte), testPayload(int64(ids[i]))) {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
	if batches.Load() != 1 || singles.Load() != 0 {
		t.Fatalf("batches/singles = %d/%d, want 1/0 (one wire request)", batches.Load(), singles.Load())
	}
}

func TestFetchBatchFanout(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	var singles atomic.Int64
	srv := newOrigin(t, &singles, nil)
	c := newClient(t, Config{BaseURL: srv.URL, MaxParallel: 2}) // no BatchPath
	ids := []fetch.ID{5, 9, 2, 8}
	items, err := c.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.ID != ids[i] || !bytes.Equal(it.Data.([]byte), testPayload(int64(ids[i]))) {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
	if singles.Load() != int64(len(ids)) {
		t.Fatalf("singles = %d, want %d", singles.Load(), len(ids))
	}
}

func TestFetchBatchFanoutError(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/3") {
			http.Error(w, "gone", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	t.Cleanup(srv.Close)
	c := newClient(t, Config{BaseURL: srv.URL})
	if _, err := c.FetchBatch(context.Background(), []fetch.ID{1, 3, 5}); err == nil {
		t.Fatal("failed key did not fail the batch")
	}
}

// Malformed batch replies — short stream, wrong id, trailing bytes —
// must all be errors, which the fabric then degrades per its path.
func TestReadBatchContractViolations(t *testing.T) {
	good := func(ids ...fetch.ID) []byte {
		var buf bytes.Buffer
		for _, id := range ids {
			WriteBatchItem(&buf, id, testPayload(int64(id)))
		}
		return buf.Bytes()
	}
	ids := []fetch.ID{1, 2}
	if _, err := ReadBatch(bytes.NewReader(good(1, 2)), ids, 1<<20); err != nil {
		t.Fatalf("well-formed reply rejected: %v", err)
	}
	cases := map[string][]byte{
		"short":     good(1),
		"misorder":  good(2, 1),
		"trailing":  append(good(1, 2), 0),
		"truncated": good(1, 2)[:15],
	}
	for name, body := range cases {
		if _, err := ReadBatch(bytes.NewReader(body), ids, 1<<20); err == nil {
			t.Errorf("%s reply accepted", name)
		}
	}
	// Oversized record: header declares more than maxBody.
	var buf bytes.Buffer
	WriteBatchItem(&buf, 1, make([]byte, 100))
	if _, err := ReadBatch(&buf, []fetch.ID{1}, 64); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestParseIDs(t *testing.T) {
	ids, err := ParseIDs("1,22,333")
	if err != nil || len(ids) != 3 || ids[0] != 1 || ids[1] != 22 || ids[2] != 333 {
		t.Fatalf("ParseIDs = %v, %v", ids, err)
	}
	for _, bad := range []string{"", "1,,2", "x", "1,2x"} {
		if _, err := ParseIDs(bad); err == nil {
			t.Errorf("ParseIDs(%q) accepted", bad)
		}
	}
}

// The adapter behind a real fabric: routing, batching and per-backend
// stats over live HTTP, end to end.
func TestClientBehindFabric(t *testing.T) {
	var batches atomic.Int64
	srv := newOrigin(t, nil, &batches)
	c := newClient(t, Config{BaseURL: srv.URL, BatchPath: "/batch"})
	f, err := fetch.New(fetch.Config{Backends: []fetch.Backend{
		{Name: "origin", Fetcher: c, DemandTimeout: 5 * time.Second, SpeculativeTimeout: time.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Fetch(context.Background(), 11); err != nil {
		t.Fatal(err)
	}
	items := make([]fetch.Item, 3)
	_, err = f.FetchSpeculativeBatch(context.Background(), 0, []fetch.ID{20, 21, 22}, items, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || batches.Load() != 1 {
		t.Fatalf("items/batches = %d/%d, want 3/1", len(items), batches.Load())
	}
	st := f.Stats(0)
	if st[0].Demand != 1 || st[0].Speculative != 3 || st[0].BatchCalls != 1 {
		t.Fatalf("stats = %+v", st[0])
	}
	if _, err := io.ReadAll(bytes.NewReader(items[0].Data.([]byte))); err != nil {
		t.Fatal(err)
	}
}
