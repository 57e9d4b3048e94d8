// Package httpfetch is the real HTTP origin adapter behind the fetch
// fabric: a Client implements fetch.Fetcher and fetch.BatchFetcher over
// its own pooled HTTP/1.1 wire, so the engine's routing, failover and
// hedging operate over actual network links instead of simulated ones.
//
// One Client wraps one origin (a base URL); a fabric mixes several
// origins by giving each its own Client as a fetch.Backend. The
// demand-vs-speculative budget split lives on the Backend
// (Backend.DemandTimeout / Backend.SpeculativeTimeout): the fabric
// layers the per-attempt deadline onto the context it hands the
// adapter, whose only obligation is to abandon the request promptly
// when that context dies. That promptness is what keeps hedged losers
// from holding connections and turns a wedged origin into fast
// failovers rather than a pile-up.
//
// Object fetches are plain GETs: id 42 becomes GET {BaseURL}/obj/42
// (the path template is configurable). Response bodies are bounded by
// MaxBodyBytes and go through one reader (readBounded), which appends
// to its destination, grown once from Content-Length when the origin
// provides one. The bytes are copied bufio buffer → destination (a body
// larger than the connection's 4 KiB read buffer skips it: socket →
// destination). Lent a buffer — FetchInto, FetchBatchInto: the engine
// lends a GetBytes caller's own reply buffer, or a speculative worker's
// scratch — the destination is that buffer and the payload is copied
// once more, into the cache. Fetch and FetchBatch are the same reads
// with nothing lent: the destination is a fresh slice the Item keeps,
// which a copying cache (bytestore) copies in and a byte view copies
// out again.
//
// # The origin wire
//
// A round trip should cost its two syscalls and little else, so there
// is no net/http client or transport underneath. The Client keeps a
// bounded free list of keep-alive connections (wire.go); the calling
// goroutine writes the request in one Write and reads the reply's head
// in place from the connection's read buffer when it is the canonical
// head of a 200 (reply.go: one Content-Length or chunked framing, CRLF
// lines); any other head — a non-200, a 1xx, a close-delimited body, a
// bare LF — goes, unread, to net/http's own http.ReadResponse, which
// FuzzReplyHead also holds the in-place reader to. The body, declared
// or chunked (decoded as net/http decodes it, trailers included), goes
// into the destination. The abort hook that fails a blocked Read or
// Write when the fetch's context dies is registered once per connection
// and context Done channel, not per fetch, and the free list hands a
// fetch the idle connection its context's hook is on, so a fetch into a
// lent buffer allocates nothing unless its context is new to the pool.
// No goroutine, channel or timer exists per connection or per fetch.
// Deliberately absent: HTTP/2 (an https origin is dialled through
// crypto/tls and spoken to in HTTP/1.1), redirects (a 3xx is a
// *StatusError like any other non-200), HTTP_PROXY, Accept-Encoding
// (the payload cached is the bytes the origin sent), cookies.
//
// # The batch wire
//
// FetchBatch has two modes. Against an origin that implements the
// batch endpoint (BatchPath), the whole batch travels as ONE request —
// GET {BaseURL}{BatchPath}?ids=1,2,3 — whose response body is a framed
// record stream, one record per requested id in request order:
//
//	8 bytes  big-endian uint64  id
//	4 bytes  big-endian uint32  payload length n
//	n bytes                     payload
//
// WriteBatchItem (AppendBatchItem for a reply assembled in a buffer)
// and ReadBatch implement the two ends. cmd/prefetchd serves exactly
// this wire on its own /batch endpoint, so one prefetchd can front
// another as a cache tier. Against an origin with
// no batch endpoint, FetchBatch degrades to bounded-concurrency
// parallel GETs over the shared connection pool (MaxParallel), still
// returning one item per id in request order — the fabric's batch
// contract either way.
package httpfetch

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/prefetcher/fetch"
)

// DefaultMaxBodyBytes bounds one object's response body when Config
// leaves MaxBodyBytes zero.
const DefaultMaxBodyBytes = 16 << 20

// DefaultMaxParallel bounds fan-out batch concurrency when Config
// leaves MaxParallel zero.
const DefaultMaxParallel = 8

// Config assembles a Client. BaseURL is the only required field.
type Config struct {
	// BaseURL locates the origin, e.g. "http://origin.internal:9000".
	// Scheme must be http or https; a trailing slash is stripped.
	BaseURL string
	// Path is the single-object GET template, containing exactly one
	// %d verb the id is formatted into (default "/obj/%d").
	Path string
	// BatchPath, when non-empty, names the origin's batch endpoint:
	// FetchBatch then issues one GET {BatchPath}?ids=... expecting the
	// framed batch wire (see the package comment) instead of fanning
	// out parallel single GETs.
	BatchPath string
	// MaxBodyBytes bounds one object's payload (default
	// DefaultMaxBodyBytes); an origin reply past the bound is an error,
	// not a truncation — a truncated object served as a cache hit would
	// be silent corruption.
	MaxBodyBytes int64
	// MaxParallel bounds the concurrent GETs of a fan-out FetchBatch
	// (default DefaultMaxParallel). Ignored when BatchPath is set.
	MaxParallel int
	// Header is added to every request (auth and the like; Host is
	// always the base URL's). New renders it once.
	Header http.Header
	// TLS configures connections to an https origin — private roots,
	// client certificates; nil means the system's. ALPN is "http/1.1".
	TLS *tls.Config
}

// StatusError reports a non-200 origin reply.
type StatusError struct {
	URL  string
	Code int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpfetch: GET %s: status %d", e.URL, e.Code)
}

// Is makes a 404 match fs.ErrNotExist, as a missing file does from
// fsfetch: the origin answered that it has no such key.
func (e *StatusError) Is(target error) bool {
	return target == fs.ErrNotExist && e.Code == http.StatusNotFound
}

// Client fetches objects from one HTTP origin. It implements
// fetch.Fetcher and fetch.BatchFetcher and is safe for concurrent use
// — the fabric calls it from demand, hedge and speculative goroutines
// at once, each on a pooled connection of its own.
type Client struct {
	origin      string // scheme://host, for StatusError.URL
	maxBody     int64
	maxParallel int
	// A request is objPre id objTail, or batchPre id,id,… reqTail: "GET
	// {path}" up to the id, then " HTTP/1.1\r\nHost: …\r\n…\r\n" (which
	// objTail, the object path's end in front of it, ends with too).
	objPre, objTail, batchPre, reqTail string // batchPre "": no batch endpoint
	addr                               string // host:port dialled
	dial                               func(ctx context.Context, network, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   []*conn // LIFO: the most recently used is taken first
	closed bool
}

// New validates cfg and returns a Client for the origin.
func New(cfg Config) (*Client, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("httpfetch: base URL: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || u.User != nil {
		return nil, fmt.Errorf("httpfetch: base URL %q: want http(s)://host[:port][/path], credentials in Header", u.Redacted())
	}
	path := cfg.Path
	if path == "" {
		path = "/obj/%d"
	}
	if strings.Count(path, "%") != 1 || !strings.Contains(path, "%d") {
		return nil, fmt.Errorf("httpfetch: path template %q must contain exactly one %%d", path)
	}
	// Both paths go onto the request line as they are.
	if strings.ContainsFunc(path+cfg.BatchPath, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
		return nil, fmt.Errorf("httpfetch: space or control character in path %q or batch path %q", path, cfg.BatchPath)
	}
	if cfg.MaxBodyBytes < 0 || cfg.MaxParallel < 0 {
		return nil, fmt.Errorf("httpfetch: negative bound in config")
	}
	c := &Client{
		origin:      u.Scheme + "://" + u.Host,
		maxBody:     cfg.MaxBodyBytes,
		maxParallel: cfg.MaxParallel,
	}
	if c.maxBody == 0 {
		c.maxBody = DefaultMaxBodyBytes
	}
	if c.maxParallel == 0 {
		c.maxParallel = DefaultMaxParallel
	}
	get := "GET " + strings.TrimRight(u.EscapedPath(), "/")
	objPre, objSuf, _ := strings.Cut(get+path, "%d")
	if cfg.BatchPath != "" {
		c.batchPre = get + cfg.BatchPath + "?ids="
	}

	// What follows the request line is the same every time: render it
	// once. Header.WriteSubset drops invalid field names and flattens
	// newlines in values, so nothing here can split a request.
	var tail bytes.Buffer
	fmt.Fprintf(&tail, " HTTP/1.1\r\nHost: %s\r\n", u.Host)
	cfg.Header.WriteSubset(&tail, map[string]bool{"Host": true})
	tail.WriteString("\r\n")
	c.objPre, c.reqTail, c.objTail = objPre, tail.String(), objSuf+tail.String()

	if c.addr = u.Host; u.Port() == "" {
		c.addr = net.JoinHostPort(u.Hostname(), u.Scheme) // net resolves the scheme as a service name
	}
	dialer := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}
	c.dial = dialer.DialContext
	if u.Scheme == "https" {
		tc := cfg.TLS.Clone()
		if tc == nil {
			tc = &tls.Config{}
		}
		tc.NextProtos = []string{"http/1.1"}
		c.dial = (&tls.Dialer{NetDialer: dialer, Config: tc}).DialContext // fills in ServerName
	}
	return c, nil
}

// readBounded appends at most maxBody payload bytes to dst — the one
// body reader every fetch goes through. With a declared length dst is
// grown once, exactly, and filled from r; a chunked reply is read in
// growing steps capped one byte past the bound so overflow is detected,
// not truncated. On any error dst is returned at its original length.
func readBounded(r io.Reader, declared, maxBody int64, dst []byte) ([]byte, error) {
	if declared > maxBody {
		return dst, fmt.Errorf("httpfetch: body %d bytes exceeds bound %d", declared, maxBody)
	}
	n := len(dst)
	if declared >= 0 {
		dst = slices.Grow(dst, int(declared))[:n+int(declared)]
		if _, err := io.ReadFull(r, dst[n:]); err != nil {
			return dst[:n], err
		}
		return dst, nil
	}
	for {
		dst = slices.Grow(dst, 512)
		free := dst[len(dst):cap(dst)]
		if room := maxBody - int64(len(dst)-n); int64(len(free)) > room {
			free = free[:room+1]
		}
		m, err := r.Read(free)
		dst = dst[:len(dst)+m]
		switch {
		case int64(len(dst)-n) > maxBody:
			return dst[:n], fmt.Errorf("httpfetch: body exceeds bound %d", maxBody)
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst[:n], err
		}
	}
}

// Fetch implements fetch.Fetcher: one GET, body bytes as the payload,
// Size = payload length in bytes (so configure Backend.Bandwidth in
// bytes per second). It is FetchInto with no buffer lent: the payload
// lands in a slice of its own, which the Item keeps.
func (c *Client) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	data, err := c.FetchInto(ctx, id, nil)
	if err != nil {
		return fetch.Item{}, err
	}
	return fetch.Item{ID: id, Size: float64(len(data)), Data: data}, nil
}

// FetchInto implements fetch.IntoFetcher: one GET, the body appended to
// dst. Cancellation reaches the dial, the request write, the reply head
// or the body read — whichever is current.
func (c *Client) FetchInto(ctx context.Context, id fetch.ID, dst []byte) ([]byte, error) {
	ids := [1]fetch.ID{id}
	cn, err := c.start(ctx, c.objPre, ids[:], c.objTail)
	if err != nil {
		return dst, err
	}
	out, err := readBounded(cn, cn.length, c.maxBody, dst)
	if err = c.finish(ctx, cn, err); err != nil {
		return dst, err
	}
	return out, nil
}

// FetchBatch implements fetch.BatchFetcher: one wire-framed request
// when the origin has a batch endpoint, bounded parallel GETs
// otherwise. Either way the reply is one Item per id in request order,
// each owning its payload, and any failure fails the whole batch (the
// fabric's speculative batches accept that; its demand batches degrade
// to per-key fallback).
func (c *Client) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	items := make([]fetch.Item, len(ids))
	if _, _, err := c.fetchBatch(ctx, ids, items, nil, nil); err != nil {
		return nil, err
	}
	return items, nil
}

// FetchBatchInto implements fetch.BatchIntoFetcher: FetchBatch with the
// payloads appended to dst back to back and one length per id appended
// to lens. Without a batch endpoint the parallel GETs cannot share a
// lent buffer: each owns its payload, which is copied in afterwards.
func (c *Client) FetchBatchInto(ctx context.Context, ids []fetch.ID, dst []byte, lens []int) ([]byte, []int, error) {
	if c.batchPre != "" {
		return c.fetchBatch(ctx, ids, nil, dst, lens)
	}
	items, err := c.FetchBatch(ctx, ids)
	for _, it := range items {
		b := it.Data.([]byte)
		dst, lens = append(dst, b...), append(lens, len(b))
	}
	return dst, lens, err
}

// fetchBatch is the batch round trip behind both forms: records go to
// items when it is non-nil, to dst and lens otherwise (see readBatch).
func (c *Client) fetchBatch(ctx context.Context, ids []fetch.ID, items []fetch.Item, dst []byte, lens []int) ([]byte, []int, error) {
	if len(ids) == 0 {
		return dst, lens, nil
	}
	if c.batchPre == "" {
		return dst, lens, c.fetchBatchFanout(ctx, ids, items)
	}
	cn, err := c.start(ctx, c.batchPre, ids, c.reqTail)
	if err != nil {
		return dst, lens, err
	}
	out, ls, err := readBatch(cn, cn.hdr[:], ids, c.maxBody, items, dst, lens)
	if err = c.finish(ctx, cn, err); err != nil {
		return dst, lens, err
	}
	return out, ls, nil
}

// fetchBatchFanout serves the batch as parallel single GETs bounded by
// MaxParallel, filling items. The first failure cancels the stragglers
// — a batch that already failed should stop spending origin capacity.
func (c *Client) fetchBatchFanout(ctx context.Context, ids []fetch.ID, items []fetch.Item) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(ids))
	sem := make(chan struct{}, c.maxParallel)
	var wg sync.WaitGroup
	for i := range ids {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			items[i], errs[i] = c.Fetch(wctx, ids[i])
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchHeaderLen is the fixed record header: 8-byte id + 4-byte length.
const batchHeaderLen = 12

// WriteBatchItem writes one framed record to w — the server half of
// the batch wire. cmd/originsim uses it to answer /batch requests.
func WriteBatchItem(w io.Writer, id fetch.ID, data []byte) error {
	hdr, err := appendBatchHeader(make([]byte, 0, batchHeaderLen), id, len(data))
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// AppendBatchItem appends one framed record to dst: WriteBatchItem for
// a server that assembles its reply in a buffer it keeps, as
// cmd/prefetchd does. On an error dst comes back as it was.
func AppendBatchItem(dst []byte, id fetch.ID, data []byte) ([]byte, error) {
	dst, err := appendBatchHeader(dst, id, len(data))
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

func appendBatchHeader(dst []byte, id fetch.ID, n int) ([]byte, error) {
	if int64(n) > int64(^uint32(0)) {
		return dst, fmt.Errorf("httpfetch: batch payload %d bytes exceeds the wire's uint32 length", n)
	}
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(dst, uint64(id)), uint32(n)), nil
}

// ReadBatch decodes a framed batch reply, requiring exactly one record
// per requested id, in request order, each payload within maxBody. Any
// violation — short stream, misordered id, oversized record, trailing
// bytes — is an error: the fabric treats a broken batch reply as a
// whole-batch failure (speculative) or falls back per key (demand),
// and a lenient parse here would mask origin bugs as cache content.
func ReadBatch(r io.Reader, ids []fetch.ID, maxBody int64) ([]fetch.Item, error) {
	items := make([]fetch.Item, len(ids))
	if _, _, err := readBatch(r, make([]byte, batchHeaderLen), ids, maxBody, items, nil, nil); err != nil {
		return nil, err
	}
	return items, nil
}

// readBatch is the one batch decoder. With items non-nil (len(ids))
// each record's payload lands in a slice of its own, kept by items[i];
// with items nil the payloads are appended to dst back to back and one
// length per id to lens, both returned as they came on any error. hdr
// is batchHeaderLen bytes of scratch for the record headers.
func readBatch(r io.Reader, hdr []byte, ids []fetch.ID, maxBody int64, items []fetch.Item, dst []byte, lens []int) ([]byte, []int, error) {
	out, ls := dst, lens
	for i, want := range ids {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return dst, lens, fmt.Errorf("httpfetch: batch record %d/%d: %w", i, len(ids), err)
		}
		id := fetch.ID(binary.BigEndian.Uint64(hdr[:8]))
		n := int64(binary.BigEndian.Uint32(hdr[8:]))
		if id != want {
			return dst, lens, fmt.Errorf("httpfetch: batch record %d has id %d, want %d", i, id, want)
		}
		if n > maxBody {
			return dst, lens, fmt.Errorf("httpfetch: batch record %d: %d bytes exceeds bound %d", i, n, maxBody)
		}
		rec := out
		if items != nil {
			rec = nil
		}
		rec, err := readBounded(r, n, maxBody, rec)
		if err != nil {
			return dst, lens, fmt.Errorf("httpfetch: batch record %d payload: %w", i, err)
		}
		if items != nil {
			items[i] = fetch.Item{ID: id, Size: float64(n), Data: rec}
		} else {
			out, ls = rec, append(ls, int(n))
		}
	}
	// A reader may hand over its last byte and io.EOF together.
	if n, err := r.Read(hdr[:1]); n != 0 || err != io.EOF {
		return dst, lens, fmt.Errorf("httpfetch: trailing bytes after %d batch records", len(ids))
	}
	return out, ls, nil
}

// ParseIDs parses a comma-separated id list ("1,2,3") — the ?ids=
// query parameter of the batch wire. Shared by the client (which
// formats it) and the servers that answer it (cmd/originsim; the
// daemon parses in place, through AppendIDs).
func ParseIDs(s string) ([]fetch.ID, error) {
	ids, err := appendIDs(make([]fetch.ID, 0, strings.Count(s, ",")+1), s)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// AppendIDs parses list as ParseIDs does and appends the ids to dst,
// which comes back as it was on an error: ParseIDs for a server that
// reads the request line in place into scratch it keeps.
func AppendIDs(dst []fetch.ID, list []byte) ([]fetch.ID, error) { return appendIDs(dst, list) }

func appendIDs[T string | []byte](dst []fetch.ID, s T) ([]fetch.ID, error) {
	n := len(dst)
	for {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		v, err := strconv.ParseInt(string(s[:i]), 10, 64)
		if err != nil {
			return dst[:n], fmt.Errorf("httpfetch: bad id %q: %w", s[:i], err)
		}
		if dst = append(dst, fetch.ID(v)); i == len(s) {
			return dst, nil
		}
		s = s[i+1:]
	}
}
