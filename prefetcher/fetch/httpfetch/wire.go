package httpfetch

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/prefetcher/fetch"
)

const (
	// The free list holds at most maxIdleConns connections, none idle
	// for longer than idleTimeout — checked when one is taken, so an
	// idle Client runs no timer.
	maxIdleConns = 64
	idleTimeout  = 90 * time.Second
	// maxReplyHeaderBytes bounds a reply's status line and headers,
	// which http.ReadResponse does not.
	maxReplyHeaderBytes = 64 << 10
)

var (
	errClosed         = errors.New("httpfetch: client closed")
	errHeaderTooLarge = errors.New("httpfetch: reply header too large")
)

// conn is one keep-alive connection to the origin. One fetch owns it
// from take to finish; otherwise it sits on the Client's free list,
// costing a descriptor and its read buffer, no goroutine.
type conn struct {
	nc     net.Conn
	lim    io.LimitedReader // over nc: maxReplyHeaderBytes for a reply's head, unbounded for its body
	br     *bufio.Reader    // over lim
	req    []byte           // request scratch
	abort  func()           // fails a blocked Read or Write; run when the fetch's context dies
	disarm func() bool      // stops the current fetch's abort hook
	resp   *http.Response   // the current reply
	eof    bool             // resp.Body has returned io.EOF
	reused bool             // has completed a fetch before
	idleAt time.Time        // when it last went onto the free list
}

// Read reads the current reply's body and remembers its io.EOF: the one
// fact that says the whole reply — a chunked body's trailer section
// included — is off the connection and the next may follow. (The body
// is never Closed: net/http's Close drains without bound.)
func (cn *conn) Read(p []byte) (int, error) {
	n, err := cn.resp.Body.Read(p)
	cn.eof = cn.eof || err == io.EOF
	return n, err
}

// take returns a connection for one fetch: the most recently used idle
// one or, failing that or when fresh is set, a newly dialled one.
func (c *Client) take(ctx context.Context, fresh bool) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	var cn *conn
	for n := len(c.idle) - 1; n >= 0 && !fresh && cn == nil; n-- {
		cn, c.idle[n] = c.idle[n], nil
		c.idle = c.idle[:n]
		if time.Since(cn.idleAt) > idleTimeout { // as is, the list being LIFO, every one below
			cn.nc.Close()
			cn = nil
		}
	}
	c.mu.Unlock()
	if cn != nil {
		return cn, nil
	}
	nc, err := c.dial(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	cn = &conn{nc: nc, lim: io.LimitedReader{R: nc}}
	cn.br = bufio.NewReader(&cn.lim)
	cn.abort = func() { nc.SetDeadline(time.Unix(1, 0)) }
	return cn, nil
}

// finish ends cn's fetch. The connection goes back on the free list
// only if ctx did not fire (disarm says), nothing failed, the origin
// keeps it open (and, after a 1xx, has no reply proper still to send)
// and the reply was read exactly to its end; otherwise it is closed.
// Returns err or, when ctx is what broke the fetch, ctx's own error.
func (c *Client) finish(ctx context.Context, cn *conn, err error) error {
	pool := cn.disarm() && err == nil && !cn.resp.Close && cn.resp.StatusCode >= 200 && cn.eof && cn.br.Buffered() == 0
	if pool {
		cn.reused, cn.idleAt = true, time.Now()
		c.mu.Lock()
		if pool = !c.closed && len(c.idle) < maxIdleConns; pool {
			c.idle = append(c.idle, cn)
		}
		c.mu.Unlock()
	}
	if !pool {
		cn.nc.Close()
	}
	if cerr := ctx.Err(); err != nil && cerr != nil {
		return cerr
	}
	return err
}

// Close closes the idle connections and fails later fetches fast. A
// fetch in flight completes; its connection is closed when it does.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
	return nil
}

// start sends GET pre id,id,… tail and parses the reply's head. On a
// nil error the reply is a 200 and cn stands at its body's first byte:
// the caller reads it and calls finish. When ctx dies the connection's
// deadline moves into the past, failing the Read or Write in progress.
//
// A reused connection that fails before the first reply byte is what
// an origin that closed it while it sat idle looks like. A GET is
// idempotent, so it goes out once more, on a new connection; that one
// failing the same way is the origin's failure and is reported.
func (c *Client) start(ctx context.Context, pre string, ids []fetch.ID, tail string) (*conn, error) {
	for fresh := false; ; fresh = true {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cn, err := c.take(ctx, fresh)
		if err != nil {
			return nil, err
		}
		cn.disarm = context.AfterFunc(ctx, cn.abort)
		cn.req = append(cn.req[:0], pre...)
		for i, id := range ids {
			if i > 0 {
				cn.req = append(cn.req, ',')
			}
			cn.req = strconv.AppendInt(cn.req, int64(id), 10)
		}
		cn.req = append(cn.req, tail...)
		cn.lim.N = maxReplyHeaderBytes
		if _, err = cn.nc.Write(cn.req); err == nil {
			_, err = cn.br.Peek(1)
		}
		if err != nil {
			if err = c.finish(ctx, cn, err); cn.reused {
				continue
			}
			return nil, err
		}
		if cn.resp, err = http.ReadResponse(cn.br, nil); err != nil {
			if cn.lim.N <= 0 {
				err = errHeaderTooLarge
			}
			return nil, c.finish(ctx, cn, fmt.Errorf("httpfetch: reading reply: %w", err))
		}
		// A reply with no body (http.NoBody, never Read) is at its end already.
		cn.eof, cn.lim.N = cn.resp.ContentLength == 0, math.MaxInt64
		if cn.resp.StatusCode != http.StatusOK {
			target := cn.req[len("GET ") : len(cn.req)-len(c.reqTail)]
			serr := &StatusError{URL: c.origin + string(target), Code: cn.resp.StatusCode}
			// Drain a bounded remainder so the connection can be reused.
			_, _ = io.CopyN(io.Discard, cn, 512)
			_ = c.finish(ctx, cn, nil)
			return nil, serr
		}
		return cn, nil
	}
}
