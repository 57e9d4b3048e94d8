package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/prefetcher/fetch/httpfetch"
)

// fillPayload writes id's object body into b: the decimal id and a dot,
// repeated — the same bytes cmd/originsim serves, so a reply can be
// checked without the origin keeping state. Doubling copies keep a
// 16 KiB body at about a microsecond.
func fillPayload(b []byte, id int64) {
	var unit [24]byte
	u := append(strconv.AppendInt(unit[:0], id, 10), '.')
	n := copy(b, u)
	for n < len(b) {
		n += copy(b[n:], b[:n])
	}
}

// checkPayload verifies an object body: always its length and leading
// "id.", and every byte when full is set.
func checkPayload(body []byte, id int64, size int, full bool, scratch []byte) error {
	if len(body) != size {
		return fmt.Errorf("key %d: body is %d bytes, want %d", id, len(body), size)
	}
	var unit [24]byte
	u := append(strconv.AppendInt(unit[:0], id, 10), '.')
	if len(u) > size {
		u = u[:size]
	}
	if !bytes.HasPrefix(body, u) {
		return fmt.Errorf("key %d: body starts %q, want %q", id, body[:len(u)], u)
	}
	if full {
		want := scratch[:size]
		fillPayload(want, id)
		if !bytes.Equal(body, want) {
			return fmt.Errorf("key %d: body differs from the origin's payload", id)
		}
	}
	return nil
}

// batchHeaderLen is the batch wire's record header: 8-byte big-endian
// id, 4-byte big-endian payload length (see package httpfetch).
const batchHeaderLen = 12

// checkFrames verifies a /batch reply: one record per requested key, in
// request order, each with the right length and payload, and nothing
// after the last.
func checkFrames(body []byte, keys []int64, size int, full bool, scratch []byte) error {
	for i, k := range keys {
		if len(body) < batchHeaderLen {
			return fmt.Errorf("record %d/%d: reply ends inside the header", i, len(keys))
		}
		id := int64(binary.BigEndian.Uint64(body[:8]))
		n := int(binary.BigEndian.Uint32(body[8:batchHeaderLen]))
		if id != k {
			return fmt.Errorf("record %d has id %d, want %d", i, id, k)
		}
		body = body[batchHeaderLen:]
		if n > len(body) {
			return fmt.Errorf("record %d: reply ends inside the %d-byte payload", i, n)
		}
		if err := checkPayload(body[:n], k, size, full, scratch); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		body = body[n:]
	}
	if len(body) != 0 {
		return fmt.Errorf("%d bytes after the last of %d records", len(body), len(keys))
	}
	return nil
}

// originCounts is what the bench origin has served so far.
type originCounts struct {
	Requests      int64 // HTTP requests answered (single and batch)
	BatchRequests int64 // of which /batch
	Items         int64 // objects served (a batch serves several)
	Bytes         int64 // payload bytes served, framing excluded
}

func (a originCounts) sub(b originCounts) originCounts {
	return originCounts{a.Requests - b.Requests, a.BatchRequests - b.BatchRequests, a.Items - b.Items, a.Bytes - b.Bytes}
}

// origin is the bench-owned origin server: cmd/originsim's wire and
// payloads, exact counters, no timers.
type origin struct {
	size int
	url  string
	srv  *http.Server
	done chan struct{}

	requests, batches, items, bytes atomic.Int64

	// Every handler call records its duration (origin.handler_p50_us)
	// and, under a tracer, a span.
	tr   *tracer
	mu   sync.Mutex
	durs []float64 // handler durations, µs
}

var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 16384); return &b }}

func startOrigin(size int, tr *tracer) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin: %w", err)
	}
	o := &origin{size: size, url: "http://" + ln.Addr().String(), done: make(chan struct{}), tr: tr}
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", o.handleObj)
	mux.HandleFunc("/batch", o.handleBatch)
	o.srv = &http.Server{Handler: mux}
	go func() {
		defer close(o.done)
		_ = o.srv.Serve(ln) // always ErrServerClosed, from stop
	}()
	return o, nil
}

// stop closes the listener and every connection and waits for the
// serve loop to end.
func (o *origin) stop() {
	_ = o.srv.Close() // open connections are the daemon's idle keep-alives
	<-o.done
}

func (o *origin) counts() originCounts {
	return originCounts{o.requests.Load(), o.batches.Load(), o.items.Load(), o.bytes.Load()}
}

// handlerDurations returns the recorded handler times in µs.
func (o *origin) handlerDurations() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.durs...)
}

// observe records one handler call that began at start; first is the
// first key it served, which is how a traced fetch finds its origin span.
func (o *origin) observe(start time.Time, first int64) {
	end := time.Now()
	o.mu.Lock()
	o.durs = append(o.durs, float64(end.Sub(start).Nanoseconds())/1e3)
	o.mu.Unlock()
	if o.tr != nil {
		o.tr.originSpan(first, start, end)
	}
}

func (o *origin) handleObj(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/obj/"), 10, 64)
	if err != nil {
		http.Error(w, "bad id", http.StatusBadRequest)
		return
	}
	bp := payloadPool.Get().(*[]byte)
	b := append((*bp)[:0], make([]byte, o.size)...)
	fillPayload(b, id)
	// Counted before the write: once the daemon has the reply, the
	// counters must already include it.
	o.requests.Add(1)
	o.items.Add(1)
	o.bytes.Add(int64(o.size))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b) // a daemon that hung up shows as a client-side error
	*bp = b
	payloadPool.Put(bp)
	o.observe(start, id)
}

func (o *origin) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ids, err := httpfetch.ParseIDs(r.URL.Query().Get("ids"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bp := payloadPool.Get().(*[]byte)
	b := append((*bp)[:0], make([]byte, o.size)...)
	o.requests.Add(1)
	o.batches.Add(1)
	o.items.Add(int64(len(ids)))
	o.bytes.Add(int64(len(ids) * o.size))
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, id := range ids {
		fillPayload(b, int64(id))
		if err := httpfetch.WriteBatchItem(w, id, b); err != nil {
			break
		}
	}
	*bp = b
	payloadPool.Put(bp)
	first := int64(-1)
	if len(ids) > 0 {
		first = int64(ids[0])
	}
	o.observe(start, first)
}
