package httpfetch

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
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
// the payload and its boxing into Item.Data. The reply head is read in
// place, the body straight into the payload, and the abort hook stays
// registered while the context's Done channel does not change. The
// origin here is a scripted socket that allocates nothing per request,
// so the count is the client's alone. The http.Client this wire replaced
// read 49 on the same origin; the wire read 13 while http.ReadResponse
// parsed every head.
const fetchAllocCeiling = 2

// fetchIntoAllocCeiling is fetchAllocCeiling less the two allocations
// FetchInto does not make: the payload goes into the caller's buffer,
// and nothing is boxed.
const fetchIntoAllocCeiling = fetchAllocCeiling - 2

// newKiBOrigin answers every request with one 1 KiB object.
func newKiBOrigin(t *testing.T) *scriptedOrigin {
	return newScriptedReplyOrigin(t, append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 1024\r\n\r\n"), make([]byte, 1024)...))
}

// newScriptedReplyOrigin answers every request head with reply and
// allocates nothing per request.
func newScriptedReplyOrigin(t *testing.T, reply []byte) *scriptedOrigin {
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
	ceiling := fetchAllocCeiling
	if raceEnabled {
		ceiling++ // the payload's slices.Grow allocates twice under -race
	}
	if got > float64(ceiling) {
		t.Fatalf("1 KiB Fetch allocates %.0f times, ceiling %d", got, ceiling)
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

// Callers under contexts of their own, taking turns on one Client, each
// keep the connection their abort hook is registered on, so alternating
// fetches register nothing anew and allocate nothing. Taking the most
// recently used connection instead would hand each caller the other's,
// and every fetch would register its hook again.
func TestFetchIntoAllocFreeAcrossContexts(t *testing.T) {
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1024\r\n\r\n"), make([]byte, 1024)...)
	var both sync.WaitGroup // the first replies wait for both requests: two connections
	both.Add(2)
	o := newScriptedOrigin(t, 2, func(n int, c *originConn) {
		buf := make([]byte, 4096)
		for have, first := 0, true; ; {
			m, err := c.Read(buf[have:])
			if err != nil {
				return
			}
			if have += m; bytes.HasSuffix(buf[:have], []byte("\r\n\r\n")) {
				if have = 0; first {
					both.Done()
					both.Wait()
					first = false
				}
				if _, err := c.Write(reply); err != nil {
					return
				}
			}
		}
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	ctxs := []context.Context{attemptContext(t), attemptContext(t)}
	bufs := [][]byte{make([]byte, 0, 2048), make([]byte, 0, 2048)}
	var warm sync.WaitGroup
	for i := range ctxs {
		warm.Add(1)
		go func(i int) {
			defer warm.Done()
			if _, err := c.FetchInto(ctxs[i], fetch.ID(i), bufs[i]); err != nil {
				t.Errorf("FetchInto: %v", err)
			}
		}(i)
	}
	warm.Wait()
	var id fetch.ID
	got := testing.AllocsPerRun(500, func() {
		for i, ctx := range ctxs {
			id++
			if out, err := c.FetchInto(ctx, id, bufs[i]); err != nil || len(out) != 1024 {
				t.Fatalf("FetchInto: %d bytes, err %v", len(out), err)
			}
		}
	})
	if got != 0 {
		t.Fatalf("two contexts taking turns allocate %.0f times a round; want 0", got)
	}
	if n := o.accepts.Load(); n != 2 {
		t.Fatalf("%d connections for two contexts; want 2", n)
	}
}

// An 8-id FetchBatchInto over a kept buffer allocates nothing, whether
// the batch reply comes chunked — as net/http origins send it — or under
// a Content-Length: the chunked body is decoded in place, and each
// record's header is read into the connection's own scratch.
func TestFetchBatchIntoAllocFree(t *testing.T) {
	ids := []fetch.ID{1, 2, 3, 4, 5, 6, 7, 8}
	var records bytes.Buffer
	for _, id := range ids {
		WriteBatchItem(&records, id, make([]byte, 1024))
	}
	var chunkedBody bytes.Buffer
	for rest := records.Bytes(); len(rest) > 0; { // in 3000-byte chunks, as a streaming server cuts them
		n := min(len(rest), 3000)
		fmt.Fprintf(&chunkedBody, "%x\r\n%s\r\n", n, rest[:n])
		rest = rest[n:]
	}
	chunkedBody.WriteString("0\r\n\r\n")
	for _, tc := range []struct{ name, reply string }{
		{"chunked", "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n" + chunkedBody.String()},
		{"declared", fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", records.Len(), records.Bytes())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newScriptedReplyOrigin(t, []byte(tc.reply))
			c := newClient(t, Config{BaseURL: o.url, BatchPath: "/batch"})
			defer c.Close()
			ctx := attemptContext(t)
			buf, lens := make([]byte, 0, 16<<10), make([]int, 0, len(ids))
			got := testing.AllocsPerRun(500, func() {
				out, ls, err := c.FetchBatchInto(ctx, ids, buf, lens)
				if err != nil || len(out) != 8<<10 || len(ls) != len(ids) {
					t.Fatalf("FetchBatchInto: %d bytes, %d lengths, err %v", len(out), len(ls), err)
				}
			})
			if got != 0 {
				t.Fatalf("an 8-id FetchBatchInto allocates %.0f times; want 0", got)
			}
			if n := o.accepts.Load(); n != 1 {
				t.Fatalf("%d connections for 501 batches; want the one, reused", n)
			}
		})
	}
}
