package httpfetch

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/prefetcher/fetch"
)

// newSizedOrigin serves size-byte objects on /obj/{id} (declared
// length) and the framed batch wire on /batch (chunked, as the origins
// in this repository answer it).
func newSizedOrigin(tb testing.TB, size int) *httptest.Server {
	tb.Helper()
	payload := make([]byte, size)
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.Write(payload)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		ids, err := ParseIDs(r.URL.Query().Get("ids"))
		if err != nil {
			http.Error(w, "bad ids", http.StatusBadRequest)
			return
		}
		for _, id := range ids {
			if err := WriteBatchItem(w, id, payload); err != nil {
				return
			}
		}
	})
	srv := httptest.NewServer(mux)
	tb.Cleanup(srv.Close)
	return srv
}

// attemptContext is the kind of context the fabric hands the adapter:
// cancellable, so the per-fetch abort hook is really armed.
func attemptContext(tb testing.TB) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	return ctx
}

func benchFetch(b *testing.B, size int) {
	srv := newSizedOrigin(b, size)
	c := newClient(b, Config{BaseURL: srv.URL})
	defer c.Close()
	ctx := attemptContext(b)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch(ctx, fetch.ID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetch1K(b *testing.B)  { benchFetch(b, 1<<10) }
func BenchmarkFetch16K(b *testing.B) { benchFetch(b, 16<<10) }

// BenchmarkFetchInto16K is BenchmarkFetch16K reading into a buffer the
// caller keeps: no payload slice, no box.
func BenchmarkFetchInto16K(b *testing.B) {
	const size = 16 << 10
	srv := newSizedOrigin(b, size)
	c := newClient(b, Config{BaseURL: srv.URL})
	defer c.Close()
	ctx := attemptContext(b)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = c.FetchInto(ctx, fetch.ID(i), buf[:0]); err != nil || len(buf) != size {
			b.Fatal(len(buf), err)
		}
	}
}

func BenchmarkFetchBatch8(b *testing.B) {
	srv := newSizedOrigin(b, 1<<10)
	c := newClient(b, Config{BaseURL: srv.URL, BatchPath: "/batch"})
	defer c.Close()
	ctx := attemptContext(b)
	ids := make([]fetch.ID, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = fetch.ID(8*i + j)
		}
		if _, err := c.FetchBatch(ctx, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchBatchInto8 is BenchmarkFetchBatch8 with the eight
// records landing back to back in a kept buffer: no slice and no box per
// record, no []Item.
func BenchmarkFetchBatchInto8(b *testing.B) {
	srv := newSizedOrigin(b, 1<<10)
	c := newClient(b, Config{BaseURL: srv.URL, BatchPath: "/batch"})
	defer c.Close()
	ctx := attemptContext(b)
	ids := make([]fetch.ID, 8)
	var buf []byte
	var lens []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = fetch.ID(8*i + j)
		}
		var err error
		if buf, lens, err = c.FetchBatchInto(ctx, ids, buf[:0], lens[:0]); err != nil || len(buf) != 8<<10 || len(lens) != 8 {
			b.Fatal(len(buf), lens, err)
		}
	}
}

// fetchAllocCeiling is what one steady-state 1 KiB Fetch may allocate:
// the payload and its boxing into Item.Data (2), the abort hook's
// registration on the context (2) and what http.ReadResponse builds for
// a reply with two header lines — the Response, its header map and
// values, the status string, a textproto.Reader, the body (10, read 9
// to 10 across Go 1.21–1.24). The origin here is a scripted socket
// that allocates nothing per request, so the count is the client's
// alone. The http.Client this wire replaced read 49 on the same origin;
// this wire reads 13.
const fetchAllocCeiling = 16

// fetchIntoAllocCeiling is fetchAllocCeiling less the two allocations
// FetchInto does not make: the payload goes into the caller's buffer,
// and nothing is boxed. It reads 11 where Fetch reads 13; what is left
// is the abort hook's and http.ReadResponse's.
const fetchIntoAllocCeiling = fetchAllocCeiling - 2

// newKiBOrigin answers every request with one 1 KiB object and
// allocates nothing per request, so a count is the client's alone.
func newKiBOrigin(t *testing.T) *scriptedOrigin {
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 1024\r\n\r\n"), make([]byte, 1024)...)
	return newScriptedOrigin(t, 1, func(n int, c *originConn) {
		buf := make([]byte, 4096)
		for have := 0; ; {
			m, err := c.Read(buf[have:])
			if err != nil {
				return
			}
			if have += m; bytes.HasSuffix(buf[:have], []byte("\r\n\r\n")) {
				have = 0
				if _, err := c.Write(reply); err != nil {
					return
				}
			}
		}
	})
}

func TestFetchAllocCeiling(t *testing.T) {
	o := newKiBOrigin(t)
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	ctx := attemptContext(t)
	var id fetch.ID
	got := testing.AllocsPerRun(500, func() {
		id++
		if item, err := c.Fetch(ctx, id); err != nil || len(item.Data.([]byte)) != 1024 {
			t.Fatalf("Fetch: %v", err)
		}
	})
	t.Logf("1 KiB Fetch: %.0f allocs", got)
	if got > fetchAllocCeiling {
		t.Fatalf("1 KiB Fetch allocates %.0f times, ceiling %d", got, fetchAllocCeiling)
	}
}

func TestFetchIntoAllocCeiling(t *testing.T) {
	o := newKiBOrigin(t)
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	ctx := attemptContext(t)
	var id fetch.ID
	buf := make([]byte, 0, 2048)
	got := testing.AllocsPerRun(500, func() {
		id++
		if out, err := c.FetchInto(ctx, id, buf); err != nil || len(out) != 1024 || &out[0] != &buf[:1][0] {
			t.Fatalf("FetchInto: %d bytes in the lent buffer: %v, err %v", len(out), &out[0] == &buf[:1][0], err)
		}
	})
	t.Logf("1 KiB FetchInto: %.0f allocs", got)
	if got > fetchIntoAllocCeiling {
		t.Fatalf("1 KiB FetchInto allocates %.0f times, ceiling %d", got, fetchIntoAllocCeiling)
	}
}
