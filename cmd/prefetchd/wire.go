package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The wire loop, first tier of the front end (see the package comment).

// maxWireHead bounds a head the wire loop recognises, and sizes a
// connection's read buffer.
const maxWireHead = 4 << 10

// What recognise makes of the bytes read so far: a line is incomplete;
// a whole head, and the wire loop's to serve; net/http's.
const needMore, accept, handOff = 0, 1, 2

// wireReq is a recognised request. Its slices alias the read buffer.
type wireReq struct {
	kind byte   // 'o' /obj/…, 'b' /batch…, 'h' /healthz
	head bool   // HEAD
	path []byte // as http.Request.URL.Path will read it
	ids  []byte // /batch's ids parameter
}

// The bytes a recognised head is made of.
const (
	alnumBytes   = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	segmentBytes = alnumBytes + "._-"             // a space, a key, an id list: nothing net/http would unescape or split on
	hostBytes    = segmentBytes + ":[]"           // a Host value net/http's validHostHeader passes
	tokenBytes   = alnumBytes + "!#$%&'*+-.^_`|~" // a header name (RFC 9110 token)
)

func only(b []byte, set string) bool {
	for _, c := range b {
		if strings.IndexByte(set, c) < 0 {
			return false
		}
	}
	return true
}

// segment reports whether b is a path segment the wire loop reads: not
// empty, and not one ServeMux would clean away ("." and "..").
func segment(b []byte) bool { return len(b) > 0 && b[0] != '.' && only(b, segmentBytes) }

// recognise reads b as the start of a connection's unserved bytes. It
// ends lines where net/http does, at LF, and decides line by line: it
// answers needMore only while net/http too would still be reading,
// hands off what only net/http takes (a bare LF ends a line, or the
// head) and never looks past the head, whose length n is on accept.
func recognise(b []byte) (req wireReq, n, verdict int) {
	for line, hosts := 0, 0; ; line++ {
		eol := bytes.IndexByte(b[n:], '\n')
		if eol < 0 && len(b) < maxWireHead {
			return req, 0, needMore
		}
		if eol < 1 || b[n+eol-1] != '\r' || n+eol >= maxWireHead {
			return req, 0, handOff
		}
		text := b[n : n+eol-1]
		n += eol + 1
		switch {
		case line == 0 && req.requestLine(text), line > 0 && len(text) > 0 && headerLine(text, &hosts):
		case line > 0 && len(text) == 0 && hosts == 1:
			return req, n, accept
		default:
			return req, 0, handOff
		}
	}
}

// requestLine fills req from a request line in canonical form.
func (req *wireReq) requestLine(line []byte) bool {
	method, rest, _ := bytes.Cut(line, []byte(" "))
	target, ok := bytes.CutSuffix(rest, []byte(" HTTP/1.1"))
	req.head = string(method) == "HEAD"
	if !ok || !req.head && string(method) != "GET" {
		return false
	}
	req.path, req.ids, ok = bytes.Cut(target, []byte("?ids="))
	switch {
	case bytes.HasPrefix(req.path, []byte("/obj/")):
		req.kind = 'o'
		space, key, two := bytes.Cut(req.path[len("/obj/"):], []byte("/"))
		return !ok && segment(space) && (!two || segment(key))
	case req.head:
		return false
	case string(req.path) == "/healthz":
		req.kind = 'h'
		return !ok
	case string(req.path) == "/batch" || bytes.HasPrefix(req.path, []byte("/batch/")) && segment(req.path[len("/batch/"):]):
		req.kind = 'b'
		return ok && only(req.ids, segmentBytes+",")
	}
	return false
}

// headerLine reports whether line is a header field the wire loop can
// ignore — those that change how net/http reads a request or frames its
// reply are not — and counts the Hosts.
func headerLine(line []byte, hosts *int) bool {
	name, value, ok := bytes.Cut(line, []byte(":"))
	if !ok || len(name) == 0 || !only(name, tokenBytes) {
		return false
	}
	for _, c := range value {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	if bytes.EqualFold(name, []byte("Host")) {
		*hosts++
		return only(bytes.Trim(value, " "), hostBytes)
	}
	for _, special := range [...]string{"Connection", "Content-Length", "Transfer-Encoding", "Expect", "Upgrade", "Trailer"} {
		if bytes.EqualFold(name, []byte(special)) {
			return false
		}
	}
	return true
}

// wireConn is one connection on the wire loop.
type wireConn struct {
	f       *frontEnd
	nc      net.Conn
	ctx     context.Context // the connection's own, so that no two share a context's lock
	buf     []byte          // read buffer: buf[r:w] is read and not yet served
	r, w    int
	dateSec int64 // the second date was rendered in
	date    [len(http.TimeFormat)]byte
}

// serve runs the connection until it is to be closed (false) or handed
// off with buf[r:w] unconsumed (true).
func (c *wireConn) serve() (handoff bool) {
	for {
		req, n, v := recognise(c.buf[c.r:c.w])
		switch v {
		case handOff:
			return true
		case needMore:
			if c.r > 0 {
				c.r, c.w = 0, copy(c.buf, c.buf[c.r:c.w])
			}
			m, err := c.nc.Read(c.buf[c.w:])
			if err != nil {
				return false // EOF, a reset, or Shutdown's wake-up
			}
			c.w += m
		case accept:
			c.r += n
			if err := c.exchange(req); err != nil || c.f.draining.Load() {
				return false
			}
		}
	}
}

// exchange answers one request: the reply core fills a pooled buffer
// behind headRoom, the head goes right-aligned into that room, and both
// leave in one Write. The head is what net/http would send, field order
// included: a reply does not tell which tier sent it.
func (c *wireConn) exchange(req wireReq) error {
	rb := bufPool.Get().(*replyBuf)
	status, n, ctype := http.StatusOK, len(healthzBody), payloadType
	switch req.kind {
	case 'o':
		status, n = c.f.srv.obj(c.ctx, rb, req.head, string(req.path))
	case 'b':
		status, n = c.f.srv.batch(c.ctx, rb, string(req.path), string(req.ids))
	default:
		ctype, rb.b = healthzType, append(rb.b, healthzBody...)
	}

	var room [headRoom]byte
	h := strconv.AppendInt(append(room[:0], "HTTP/1.1 "...), int64(status), 10)
	if text := http.StatusText(status); text != "" {
		h = append(append(h, ' '), text...)
	} else { // as net/http words a code it has no text for
		h = strconv.AppendInt(append(h, " status code "...), int64(status), 10)
	}
	h = strconv.AppendInt(append(h, "\r\nContent-Length: "...), int64(n), 10)
	if status != http.StatusOK {
		ctype = errorType + "\r\nX-Content-Type-Options: nosniff"
	}
	h = append(append(h, "\r\nContent-Type: "...), ctype...)
	// RFC 9110 §6.6.1 wants a Date; it changes once a second.
	if now := time.Now(); now.Unix() != c.dateSec {
		c.dateSec = now.Unix()
		now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	h = append(append(append(h, "\r\nDate: "...), c.date[:]...), "\r\n\r\n"...)

	out := rb.b[headRoom-len(h):]
	copy(out, h)
	if req.head {
		out = out[:len(h)]
	}
	_, err := c.nc.Write(out)
	putBuf(rb)
	return err
}

// frontEnd serves one listener: the wire loop for every connection, and
// an http.Server for the ones it hands off.
type frontEnd struct {
	srv      *Server
	ln       net.Listener
	mux      http.Server // serves handoff
	handoff  handoffListener
	ctx      context.Context // parent of every wire connection's; cancelled last in Shutdown
	cancel   context.CancelFunc
	draining atomic.Bool // read after each exchange; written once, by Shutdown
	mu       sync.Mutex  // taken when a connection is accepted, handed off or closed, never per request
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // the wire goroutines
}

func newFrontEnd(srv *Server, ln net.Listener) *frontEnd {
	f := &frontEnd{srv: srv, ln: ln, conns: make(map[net.Conn]struct{})}
	f.handoff = handoffListener{conns: make(chan net.Conn), closed: make(chan struct{}), addr: ln.Addr()}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.mux.Handler = srv.Handler()
	return f
}

// Serve accepts connections until the listener fails or Shutdown closes
// it, and then, as http.Server's does, returns http.ErrServerClosed.
func (f *frontEnd) Serve() error {
	go f.mux.Serve(&f.handoff) // until f.mux closes the handoff: in Shutdown, which waits for it, or below
	for {
		nc, err := f.ln.Accept()
		switch {
		case err == nil:
		case f.draining.Load():
			return http.ErrServerClosed
		case errors.Is(err, syscall.EMFILE), errors.Is(err, syscall.ENFILE):
			// Out of descriptors, which connections closing will free:
			// wait, as net/http does.
			f.srv.logf("prefetchd: accept: %v; retrying in 1s", err)
			time.Sleep(time.Second)
			continue
		default:
			f.mux.Close()
			return err
		}
		f.mu.Lock()
		ok := !f.draining.Load()
		if ok {
			f.conns[nc] = struct{}{}
			f.wg.Add(1)
		}
		f.mu.Unlock()
		if ok {
			go f.serveConn(nc)
		} else {
			nc.Close()
		}
	}
}

// serveConn runs one connection on the wire loop and then closes it or
// hands it to f.mux. A panic costs the connection, as under net/http.
func (f *frontEnd) serveConn(nc net.Conn) {
	defer f.wg.Done()
	ctx, cancel := context.WithCancel(f.ctx)
	defer cancel()
	c := &wireConn{f: f, nc: nc, ctx: ctx, buf: make([]byte, maxWireHead)}
	handoff := false
	defer func() {
		if p := recover(); p != nil {
			f.srv.logf("prefetchd: panic serving %v: %v\n%s", nc.RemoteAddr(), p, debug.Stack())
		}
		f.mu.Lock()
		delete(f.conns, nc)
		f.mu.Unlock()
		if handoff {
			select {
			case f.handoff.conns <- &replayConn{Conn: nc, pending: c.buf[c.r:c.w]}:
				return
			case <-f.ctx.Done():
			}
		}
		nc.Close()
	}()
	handoff = c.serve()
}

// Shutdown stops the front end gracefully: no new connections; wire
// connections idle in Read are woken and closed, one serving a request
// closes after its reply; then http.Server.Shutdown drains the handed-off
// ones. If ctx ends first, the wire loop's requests are cancelled.
func (f *frontEnd) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.draining.Store(true)
	for nc := range f.conns {
		nc.SetReadDeadline(time.Unix(1, 0))
	}
	f.mu.Unlock()
	f.ln.Close()
	idle := make(chan struct{})
	go func() {
		f.wg.Wait() // every wire goroutine ends: woken above, after its exchange, or by f.cancel below
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
	}
	err := f.mux.Shutdown(ctx)
	f.cancel()
	return err
}

// handoffListener is the listener f.mux serves: a wire goroutine's send
// is its Accept. Only f.mux closes it, once, when its Serve returns.
type handoffListener struct {
	conns  chan net.Conn
	closed chan struct{}
	addr   net.Addr
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error { close(l.closed); return nil }

func (l *handoffListener) Addr() net.Addr { return l.addr }

// replayConn is a handed-off connection: Read yields what the wire loop
// had read — the unrecognised request, and any behind it — first.
type replayConn struct {
	net.Conn
	pending []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}
