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
	"sync/atomic"
	"time"

	"repro/internal/httphead"
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
	lim    io.LimitedReader     // over nc: maxReplyHeaderBytes for a reply's head, unbounded for its body
	br     *bufio.Reader        // over lim
	req    []byte               // request scratch
	hdr    [batchHeaderLen]byte // a batch record's header, read in place
	reused bool                 // has completed a fetch before
	idleAt time.Time            // when it last went onto the free list

	// The abort hook: one context.AfterFunc registration on the Done
	// channel of the last fetch's context, kept for the next fetch whose
	// context shares it. busy holds gen while a fetch runs, 0 while none
	// does; the hook aborts only a fetch of its own registration, which
	// it claims by swapping busy to aborted, so a late hook of an old
	// context never reaches the connection's next fetch.
	done <-chan struct{}
	stop func() bool
	gen  uint64
	busy atomic.Uint64

	// The current reply: read in place by readHead, or net/http's resp.
	resp   *http.Response // nil unless the head was handed to http.ReadResponse
	status int
	length int64 // Content-Length; -1 for a chunked or close-delimited body
	left   int64 // declared body bytes not yet read
	close  bool  // the origin closes the connection after this reply
	chunk  httphead.Chunked
	eof    bool // the body has returned io.EOF
}

// aborted is busy's value once the hook has fired on a fetch.
const aborted = math.MaxUint64

// arm marks cn busy with a fetch under ctx, first moving the abort hook
// onto ctx's Done channel unless it is there already (a context that is
// never done needs none).
func (cn *conn) arm(ctx context.Context) {
	if done := ctx.Done(); done != cn.done {
		cn.disarm()
		cn.done, cn.gen = done, cn.gen+1
		if done != nil {
			gen, nc := cn.gen, cn.nc
			cn.stop = context.AfterFunc(ctx, func() {
				if cn.busy.CompareAndSwap(gen, aborted) {
					nc.SetDeadline(time.Unix(1, 0)) // fails the Read or Write in progress
				}
			})
		}
	}
	cn.busy.Store(cn.gen)
}

// disarm drops cn's registration, so that a long-lived context does not
// hold on to a connection that is closed or moves to another context.
func (cn *conn) disarm() {
	if cn.stop != nil {
		cn.stop()
		cn.stop = nil
	}
	cn.done = nil
}

// shut closes a connection that will not be used again.
func (cn *conn) shut() {
	cn.disarm()
	cn.nc.Close()
}

// Read reads the current reply's body and remembers its io.EOF: the one
// fact that says the whole reply — a chunked body's trailer section
// included — is off the connection and the next may follow. (A body
// net/http reads is never Closed: its Close drains without bound.)
func (cn *conn) Read(p []byte) (n int, err error) {
	switch {
	case cn.resp != nil:
		n, err = cn.resp.Body.Read(p)
	case cn.length < 0:
		n, err = cn.chunk.Read(p)
	case cn.left == 0:
		err = io.EOF
	default:
		n, err = cn.br.Read(p[:min(int64(len(p)), cn.left)])
		if cn.left -= int64(n); cn.left == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	cn.eof = cn.eof || err == io.EOF
	return n, err
}

// readHead reads the reply's head: in place when recogniseReply takes it
// from the buffered bytes, read further while they may still become such
// a head, else — unread, the bytes still buffered — by http.ReadResponse.
func (cn *conn) readHead() error {
	cn.resp = nil
	for {
		b, _ := cn.br.Peek(cn.br.Buffered())
		h, n, v := recogniseReply(b)
		if v == needMore && len(b) < cn.br.Size() {
			if _, err := cn.br.Peek(len(b) + 1); err == nil {
				continue
			}
		}
		if v == accept {
			cn.br.Discard(n)
			cn.status, cn.length, cn.close = http.StatusOK, h.length, h.close
			break
		}
		resp, err := http.ReadResponse(cn.br, nil)
		if err != nil {
			return err
		}
		cn.resp, cn.status, cn.length, cn.close = resp, resp.StatusCode, resp.ContentLength, resp.Close
		break
	}
	// A reply with no body (http.NoBody, never Read) is at its end already.
	cn.left, cn.eof, cn.lim.N = max(cn.length, 0), cn.length == 0, math.MaxInt64
	cn.chunk.Reset(cn.br)
	return nil
}

// take returns a connection for one fetch: the most recently used idle
// one whose abort hook is on ctx's Done channel already (else callers
// under contexts of their own swap connections and register anew), else
// the most recently used idle one or, failing that or when fresh is
// set, a newly dialled one.
func (c *Client) take(ctx context.Context, fresh bool) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	for j, done := len(c.idle)-1, ctx.Done(); j >= 0 && done != nil && !fresh; j-- {
		if cn := c.idle[j]; cn.done == done { // to the top, the rest keeping their order
			copy(c.idle[j:], c.idle[j+1:])
			c.idle[len(c.idle)-1] = cn
			break
		}
	}
	var cn *conn
	for n := len(c.idle) - 1; n >= 0 && !fresh && cn == nil; n-- {
		cn, c.idle[n] = c.idle[n], nil
		c.idle = c.idle[:n]
		if time.Since(cn.idleAt) > idleTimeout { // shut: one idle too long, then the next
			cn.shut()
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
	return cn, nil
}

// finish ends cn's fetch. The connection goes back on the free list
// only if ctx did not fire (the hook did not claim the fetch), nothing
// failed, the origin keeps it open (and, after a 1xx, has no reply
// proper still to send) and the reply was read exactly to its end;
// otherwise it is closed. Returns err or, when ctx is what broke the
// fetch, ctx's own error.
func (c *Client) finish(ctx context.Context, cn *conn, err error) error {
	pool := cn.busy.CompareAndSwap(cn.gen, 0) && err == nil && !cn.close && cn.status >= 200 && cn.eof && cn.br.Buffered() == 0
	if pool {
		cn.reused, cn.idleAt = true, time.Now()
		c.mu.Lock()
		if pool = !c.closed && len(c.idle) < maxIdleConns; pool {
			c.idle = append(c.idle, cn)
		}
		c.mu.Unlock()
	}
	if !pool {
		cn.shut()
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
		cn.shut()
	}
	return nil
}

// start sends GET pre id,id,… tail and reads the reply's head. On a nil
// error the reply is a 200 and cn stands at its body's first byte: the
// caller reads it and calls finish. When ctx dies the connection's
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
		cn.arm(ctx)
		if err := ctx.Err(); err != nil { // died before the hook could see cn busy
			return nil, c.finish(ctx, cn, err)
		}
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
		if err = cn.readHead(); err != nil {
			if cn.lim.N <= 0 {
				err = errHeaderTooLarge
			}
			return nil, c.finish(ctx, cn, fmt.Errorf("httpfetch: reading reply: %w", err))
		}
		if cn.status != http.StatusOK {
			target := cn.req[len("GET ") : len(cn.req)-len(c.reqTail)]
			serr := &StatusError{URL: c.origin + string(target), Code: cn.status}
			// Drain a bounded remainder so the connection can be reused.
			_, _ = io.CopyN(io.Discard, cn, 512)
			_ = c.finish(ctx, cn, nil)
			return nil, serr
		}
		return cn, nil
	}
}
