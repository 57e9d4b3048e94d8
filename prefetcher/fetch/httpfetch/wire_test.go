package httpfetch

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher/fetch"
)

// scriptedOrigin is a raw TCP origin the test drives byte by byte: no
// net/http on this side, so what the wire does with a connection — how
// many it opens, when it closes one, what it sends on which — is
// observed, not inferred. A fixed set of goroutines, all started by
// newScriptedOrigin, accepts and serves: a connection costs the origin
// no goroutine, so a goroutine snapshot taken after construction sees
// only what the client starts.
type scriptedOrigin struct {
	url      string
	accepts  atomic.Int64 // connections accepted
	requests atomic.Int64 // request heads read
	closes   atomic.Int64 // connections the client end closed (or the script finished with)
}

// originConn is one accepted connection in the script's hands.
type originConn struct {
	net.Conn
	br *bufio.Reader
	o  *scriptedOrigin
}

// request reads one request head and returns its request line, or ""
// when the client has closed the connection.
func (c *originConn) request() string {
	var line string
	for {
		l, err := c.br.ReadString('\n')
		if err != nil {
			return ""
		}
		if line == "" {
			line = strings.TrimSpace(l)
		}
		if l == "\r\n" {
			c.o.requests.Add(1)
			return line
		}
	}
}

// send writes s; a failed write (the client hung up on an over-long
// reply) is the client's business and ignored.
func (c *originConn) send(s string) { _, _ = io.WriteString(c, s) }

// reply answers with a 200 carrying body under a Content-Length.
func (c *originConn) reply(body string) {
	c.send(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}

// serveAll answers every request on the connection with its own
// request target, until the client closes it.
func (c *originConn) serveAll() {
	for line := c.request(); line != ""; line = c.request() {
		c.reply(strings.Fields(line)[1])
	}
}

// newScriptedOrigin starts an origin served by `servers` goroutines,
// each running script on one accepted connection at a time; n counts
// accepted connections from 0.
func newScriptedOrigin(t testing.TB, servers int, script func(n int, c *originConn)) *scriptedOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &scriptedOrigin{url: "http://" + ln.Addr().String()}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		live = map[net.Conn]struct{}{}
	)
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				n := int(o.accepts.Add(1)) - 1
				mu.Lock()
				live[nc] = struct{}{}
				mu.Unlock()
				script(n, &originConn{Conn: nc, br: bufio.NewReader(nc), o: o})
				nc.Close()
				o.closes.Add(1)
				mu.Lock()
				delete(live, nc)
				mu.Unlock()
			}
		}()
	}
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for nc := range live {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return o
}

func fetchString(t *testing.T, c *Client, id fetch.ID) string {
	t.Helper()
	item, err := c.Fetch(context.Background(), id)
	if err != nil {
		t.Fatalf("Fetch(%d): %v", id, err)
	}
	return string(item.Data.([]byte))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// The origin closes a keep-alive connection while it sits idle: the
// next Fetch must succeed, on a new connection, and the origin must
// have seen that request exactly once.
func TestWireRetriesOnceAfterIdleClose(t *testing.T) {
	o := newScriptedOrigin(t, 2, func(n int, c *originConn) {
		if n == 0 {
			c.request()
			c.reply("first")
			return // close while the client holds the connection idle
		}
		c.serveAll()
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	if got := fetchString(t, c, 1); got != "first" {
		t.Fatalf("first fetch = %q", got)
	}
	waitFor(t, "the origin to close the idle connection", func() bool { return o.closes.Load() == 1 })
	if got := fetchString(t, c, 2); got != "/obj/2" {
		t.Fatalf("fetch after idle close = %q", got)
	}
	if a, r := o.accepts.Load(), o.requests.Load(); a != 2 || r != 2 {
		t.Fatalf("accepts/requests = %d/%d, want 2/2 (the retried request seen once, on a new connection)", a, r)
	}
}

// A new connection that dies before the first reply byte is the
// origin's failure: reported, not retried.
func TestWireFreshFailureIsNotRetried(t *testing.T) {
	o := newScriptedOrigin(t, 2, func(n int, c *originConn) { c.request() })
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	if _, err := c.Fetch(context.Background(), 1); err == nil {
		t.Fatal("fetch from an origin that hangs up succeeded")
	}
	if a, r := o.accepts.Load(), o.requests.Load(); a != 1 || r != 1 {
		t.Fatalf("accepts/requests = %d/%d, want 1/1", a, r)
	}
}

// Replies of every framing, one after the other on ONE connection: a
// chunked body with a trailer section, a 404 with a body, replies with
// no body at all... each must leave the connection exactly at the next
// reply's first byte, or the fetch after it reads garbage.
func TestWireFramingsShareAConnection(t *testing.T) {
	replies := []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3\r\nchu\r\n4\r\nnked\r\n0\r\nX-Sum: 7\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\ndeclared",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot here\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nlast",
	}
	wantBody := []string{"chunked", "declared", "", "", "", "", "", "last"}
	wantCode := []int{200, 200, 404, 200, 204, 302, 200, 200}
	o := newScriptedOrigin(t, 1, func(n int, c *originConn) {
		for _, r := range replies {
			if c.request() == "" {
				return
			}
			c.send(r)
		}
		c.request() // hold the connection until the client closes it
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	for i := range replies {
		item, err := c.Fetch(context.Background(), fetch.ID(i))
		var se *StatusError
		switch {
		case wantCode[i] != 200:
			if !errors.As(err, &se) || se.Code != wantCode[i] {
				t.Fatalf("reply %d: err = %v, want StatusError %d", i, err, wantCode[i])
			}
			if want := fmt.Sprintf("%s/obj/%d", o.url, i); se.URL != want {
				t.Fatalf("reply %d: StatusError.URL = %q, want %q", i, se.URL, want)
			}
		case err != nil:
			t.Fatalf("reply %d: %v", i, err)
		case string(item.Data.([]byte)) != wantBody[i]:
			t.Fatalf("reply %d: body %q, want %q", i, item.Data, wantBody[i])
		}
	}
	if a := o.accepts.Load(); a != 1 {
		t.Fatalf("%d connections for %d replies, want 1", a, len(replies))
	}
}

// Replies after which the connection must NOT be reused: each is
// followed on its connection by bytes that would poison the next fetch.
func TestWireDoesNotReuseAfter(t *testing.T) {
	const poison = "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\npoison"
	anyError := errors.New("some error, whichever the parser picks")
	cases := map[string]struct {
		reply   string
		wantErr error // nil: the fetch itself succeeds
	}{
		"short body":        {"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nfour", io.ErrUnexpectedEOF},
		"connection close":  {"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok" + poison, nil},
		"http/1.0":          {"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok" + poison, nil},
		"bytes past end":    {"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" + poison, nil},
		"informational":     {"HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n" + poison, &StatusError{}},
		"long error body":   {"HTTP/1.1 500 Oops\r\nContent-Length: 2000\r\n\r\n" + strings.Repeat("x", 2000) + poison, &StatusError{}},
		"close-delimited":   {"HTTP/1.1 200 OK\r\n\r\nuntil the end", nil},
		"malformed status":  {"HTTP/1.1 two hundred\r\n\r\n", anyError},
		"not http at all":   {"\x00\x01\x02 hello\r\n\r\n", anyError},
		"negative length":   {"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n", anyError},
		"conflicting sizes": {"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nokk", anyError},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			o := newScriptedOrigin(t, 2, func(n int, c *originConn) {
				if n == 0 {
					c.request()
					c.send(tc.reply)
					if tc.wantErr != nil || strings.HasPrefix(tc.reply, "HTTP/1.1 200 OK\r\n\r\n") {
						return // hang up: the short body, the close-delimited end
					}
					c.request() // hold open; a reusing client's next request lands here and gets nothing
					return
				}
				c.serveAll()
			})
			c := newClient(t, Config{BaseURL: o.url})
			defer c.Close()
			_, err := c.Fetch(context.Background(), 1)
			switch want := tc.wantErr.(type) {
			case nil:
				if err != nil {
					t.Fatalf("fetch: %v", err)
				}
			case *StatusError:
				if !errors.As(err, &want) {
					t.Fatalf("err = %v, want a StatusError", err)
				}
			default:
				if err == nil || (want == io.ErrUnexpectedEOF && !errors.Is(err, want)) {
					t.Fatalf("err = %v, want %v", err, want)
				}
			}
			if got := fetchString(t, c, 2); got != "/obj/2" {
				t.Fatalf("next fetch = %q: the connection was reused", got)
			}
			if a := o.accepts.Load(); a != 2 {
				t.Fatalf("accepts = %d, want 2", a)
			}
		})
	}
}

// A reply head that never ends must fail within maxReplyHeaderBytes,
// whichever way it is long.
func TestWireHeaderBound(t *testing.T) {
	for name, head := range map[string]string{
		"one 1 MiB header line": "X-Long: " + strings.Repeat("a", 1<<20) + "\r\n",
		"10000 header lines":    strings.Repeat("X-Many: header-line-value\r\n", 10000),
		"1 MiB without a colon": strings.Repeat("s", 1<<20),
	} {
		head := head
		t.Run(name, func(t *testing.T) {
			o := newScriptedOrigin(t, 1, func(n int, c *originConn) {
				c.request()
				c.send("HTTP/1.1 200 OK\r\n" + head + "\r\n")
			})
			c := newClient(t, Config{BaseURL: o.url})
			defer c.Close()
			_, err := c.Fetch(context.Background(), 1)
			if !errors.Is(err, errHeaderTooLarge) {
				t.Fatalf("err = %v, want errHeaderTooLarge", err)
			}
			waitFor(t, "the origin to be hung up on", func() bool { return o.closes.Load() == 1 })
		})
	}
}

// Cancel while the body trickles in: Fetch returns the context's error
// promptly and the connection is closed, not pooled.
func TestWireCancelMidBody(t *testing.T) {
	hungUp := make(chan struct{})
	o := newScriptedOrigin(t, 1, func(n int, c *originConn) {
		defer close(hungUp)
		c.request()
		c.send("HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n")
		for {
			if _, err := c.Write([]byte("x")); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Fetch(ctx, 1)
		done <- err
	}()
	waitFor(t, "the request to reach the origin", func() bool { return o.requests.Load() == 1 })
	time.Sleep(5 * time.Millisecond) // into the body
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want exactly context.Canceled", err)
		}
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Fatalf("Fetch returned %v after cancel, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch did not return after cancel")
	}
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled fetch's connection was not closed")
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d idle connections after a cancelled fetch, want 0", idle)
	}
}

// A context that is already dead, or dies before the reply's first
// byte, yields the context's own error, and a deadline reads as
// DeadlineExceeded.
func TestWireDeadline(t *testing.T) {
	o := newScriptedOrigin(t, 2, func(n int, c *originConn) {
		c.request()
		c.request() // never answer; return when the client hangs up
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Fetch(dead, 1); err != context.Canceled {
		t.Fatalf("dead context: err = %v, want context.Canceled", err)
	}
	if a := o.accepts.Load(); a != 0 {
		t.Fatalf("a dead context dialled %d connections", a)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Fetch(ctx, 1); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 120*time.Millisecond {
		t.Fatalf("deadline of 20ms honoured after %v", d)
	}
	waitFor(t, "the timed-out connection to be closed", func() bool { return o.closes.Load() == 1 })
}

// Connection economy: sequential fetches ride one connection, k
// concurrent ones at most k, and the free list never exceeds its cap.
func TestWireConnectionEconomy(t *testing.T) {
	o := newScriptedOrigin(t, 8, func(n int, c *originConn) { c.serveAll() })
	c := newClient(t, Config{BaseURL: o.url, BatchPath: "/batch"})
	defer c.Close()
	for i := 0; i < 200; i++ {
		if got, want := fetchString(t, c, fetch.ID(i)), fmt.Sprintf("/obj/%d", i); got != want {
			t.Fatalf("fetch %d = %q, want %q", i, got, want)
		}
	}
	if a := o.accepts.Load(); a != 1 {
		t.Fatalf("200 sequential fetches used %d connections, want 1", a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fetch.ID(1000*g + i)
				item, err := c.Fetch(context.Background(), id)
				if want := fmt.Sprintf("/obj/%d", id); err != nil || string(item.Data.([]byte)) != want {
					t.Errorf("fetch %d = %v, %v; want %q", id, item.Data, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if a := o.accepts.Load(); a > 8 {
		t.Fatalf("8 concurrent callers used %d connections, want <= 8", a)
	}
}

// More fetches in flight at once than the free list holds: every one
// completes, and the surplus connections are closed, not kept.
func TestWireIdleCap(t *testing.T) {
	const inflight = maxIdleConns + 16
	var arrived sync.WaitGroup
	arrived.Add(inflight)
	o := newScriptedOrigin(t, inflight, func(n int, c *originConn) {
		c.request()
		arrived.Done()
		arrived.Wait() // answer only once every fetch holds a connection
		c.reply("ok")
		c.serveAll()
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Fetch(context.Background(), fetch.ID(i)); err != nil {
				t.Errorf("fetch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != maxIdleConns {
		t.Fatalf("%d idle connections after %d concurrent fetches, want the cap %d", idle, inflight, maxIdleConns)
	}
	waitFor(t, "the surplus connections to be closed", func() bool { return o.closes.Load() == inflight-maxIdleConns })
}

// A connection idle past idleTimeout is closed when next looked at,
// along with every one below it, and the fetch dials afresh.
func TestWireIdleExpiry(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(3)
	o := newScriptedOrigin(t, 4, func(n int, c *originConn) {
		if n < 3 {
			c.request()
			arrived.Done()
			arrived.Wait()
			c.reply("ok")
		}
		c.serveAll()
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // three connections onto the free list
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Fetch(context.Background(), fetch.ID(i)); err != nil {
				t.Errorf("fetch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	c.mu.Lock()
	for _, cn := range c.idle {
		cn.idleAt = cn.idleAt.Add(-2 * idleTimeout)
	}
	c.mu.Unlock()
	if got := fetchString(t, c, 7); got != "/obj/7" {
		t.Fatalf("fetch after expiry = %q", got)
	}
	if a := o.accepts.Load(); a != 4 {
		t.Fatalf("accepts = %d, want 4 (the expired three, then a new one)", a)
	}
	waitFor(t, "the three expired connections to be closed", func() bool { return o.closes.Load() == 3 })
}

// An idle origin connection costs the client no goroutine, and Close
// closes every one of them.
func TestClientCloseAndGoroutines(t *testing.T) {
	o := newScriptedOrigin(t, 4, func(n int, c *originConn) { c.serveAll() })
	c := newClient(t, Config{BaseURL: o.url, BatchPath: "/batch"})
	snap := testutil.SnapshotGoroutines() // the origin's four servers are in it; connections add none
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := c.Fetch(context.Background(), fetch.ID(100*g+i)); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if a := int(o.accepts.Load()); idle == 0 || idle != a {
		t.Fatalf("%d idle connections, %d accepted: want every connection idle and at least one", idle, a)
	}
	snap.Check(t, time.Second) // no Close yet: the idle connections hold no goroutine
	if o.closes.Load() != 0 {
		t.Fatalf("%d connections closed before Close", o.closes.Load())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the origin to see every connection closed", func() bool { return o.closes.Load() == o.accepts.Load() })
	accepted := o.accepts.Load()
	if _, err := c.Fetch(context.Background(), 1); !errors.Is(err, errClosed) {
		t.Fatalf("Fetch after Close: err = %v, want errClosed", err)
	}
	if _, err := c.FetchBatch(context.Background(), []fetch.ID{1, 2}); !errors.Is(err, errClosed) {
		t.Fatalf("FetchBatch after Close: err = %v, want errClosed", err)
	}
	if o.accepts.Load() != accepted {
		t.Fatal("a fetch after Close dialled the origin")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A fetch in flight across Close completes, and its connection is
// closed rather than pooled into a closed Client.
func TestClientCloseWithFetchInFlight(t *testing.T) {
	release := make(chan struct{})
	o := newScriptedOrigin(t, 1, func(n int, c *originConn) {
		c.request()
		<-release
		c.reply("late")
		c.request()
	})
	c := newClient(t, Config{BaseURL: o.url})
	got := make(chan string, 1)
	go func() {
		item, err := c.Fetch(context.Background(), 1)
		got <- fmt.Sprint(item.Data, err)
	}()
	waitFor(t, "the request to reach the origin", func() bool { return o.requests.Load() == 1 })
	c.Close()
	close(release)
	if s := <-got; s != fmt.Sprint([]byte("late"), nil) {
		t.Fatalf("in-flight fetch = %q", s)
	}
	waitFor(t, "the in-flight fetch's connection to be closed", func() bool { return o.closes.Load() == 1 })
}

// The request on the wire: one request line, Host, the configured
// headers, nothing else — and the batch form with its id list.
func TestWireRequestBytes(t *testing.T) {
	heads := make(chan string, 2)
	o := newScriptedOrigin(t, 1, func(n int, c *originConn) {
		for {
			var head strings.Builder
			for {
				l, err := c.br.ReadString('\n')
				if err != nil {
					return
				}
				head.WriteString(l)
				if l == "\r\n" {
					break
				}
			}
			heads <- head.String()
			c.send("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
		}
	})
	host := strings.TrimPrefix(o.url, "http://")
	c := newClient(t, Config{
		BaseURL:   "http://" + host + "/tier/",
		Path:      "/o/%d.bin",
		BatchPath: "/b",
		Header:    http.Header{"Authorization": {"Basic dXNlcjpwYXNz"}, "Host": {"ignored.example"}, "Bad Name": {"x"}, "X-Inject": {"a\r\nEvil: 1"}},
	})
	defer c.Close()
	if _, err := c.Fetch(context.Background(), -42); err != nil {
		t.Fatal(err)
	}
	want := "GET /tier/o/-42.bin HTTP/1.1\r\nHost: " + host + "\r\nAuthorization: Basic dXNlcjpwYXNz\r\nX-Inject: a  Evil: 1\r\n\r\n"
	if got := <-heads; got != want {
		t.Fatalf("object request:\n%q\nwant\n%q", got, want)
	}
	if _, err := c.FetchBatch(context.Background(), []fetch.ID{3, -1, 7}); err == nil {
		t.Fatal("empty batch reply accepted for three ids")
	}
	if got := <-heads; !strings.HasPrefix(got, "GET /tier/b?ids=3,-1,7 HTTP/1.1\r\nHost: ") {
		t.Fatalf("batch request: %q", got)
	}
	for _, bad := range []Config{
		{BaseURL: o.url, Path: "/o /%d"},
		{BaseURL: o.url, Path: "/o/%d\r\nEvil: 1"},
		{BaseURL: o.url, BatchPath: "/b\n"},
		{BaseURL: "http://user:pass@" + host}, // credentials belong in Header
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// newCountingServer starts a net/http origin that counts the
// connections it accepts.
func newCountingServer(t *testing.T, useTLS bool, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	conns := new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake below is expected
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	if useTLS {
		srv.StartTLS()
	} else {
		srv.Start()
	}
	t.Cleanup(srv.Close)
	return srv, conns
}

// https origins ride the same wire through crypto/tls, configured by
// Config.TLS; without the origin's root the handshake is refused.
func TestWireTLS(t *testing.T) {
	srv, conns := newCountingServer(t, true, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s over %s", r.URL.Path, r.Proto)
	}))
	roots := x509.NewCertPool()
	roots.AddCert(srv.Certificate())
	c := newClient(t, Config{BaseURL: srv.URL, TLS: &tls.Config{RootCAs: roots, NextProtos: []string{"h2"}}})
	defer c.Close()
	for i := 1; i <= 3; i++ {
		if got, want := fetchString(t, c, fetch.ID(i)), fmt.Sprintf("/obj/%d over HTTP/1.1", i); got != want {
			t.Fatalf("fetch %d = %q, want %q", i, got, want)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("three https fetches used %d connections, want 1", n)
	}
	untrusting := newClient(t, Config{BaseURL: srv.URL})
	defer untrusting.Close()
	if _, err := untrusting.Fetch(context.Background(), 1); err == nil {
		t.Fatal("handshake with an unknown root succeeded")
	}
}

// The batch endpoint as this repository's origins answer it — chunked,
// no Content-Length — must leave the connection reusable.
func TestWireBatchChunkedReuse(t *testing.T) {
	srv, conns := newCountingServer(t, false, originMux(nil, nil))
	c := newClient(t, Config{BaseURL: srv.URL, BatchPath: "/batch"})
	defer c.Close()
	for i := 0; i < 20; i++ {
		ids := []fetch.ID{fetch.ID(i), fetch.ID(i + 100), fetch.ID(i + 200)}
		items, err := c.FetchBatch(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		for j, it := range items {
			if !bytes.Equal(it.Data.([]byte), testPayload(int64(ids[j]))) {
				t.Fatalf("batch %d item %d = %q", i, j, it.Data)
			}
		}
		if _, err := c.Fetch(context.Background(), fetch.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 chunked batches and 20 fetches used %d connections, want 1", n)
	}
}

// frameRecords is the batch wire's framing of the given payloads under
// ids 1, 2, ….
func frameRecords(payloads ...string) string {
	var buf bytes.Buffer
	for i, p := range payloads {
		WriteBatchItem(&buf, fetch.ID(i+1), []byte(p))
	}
	return buf.String()
}

// The borrow rule on the wire: whatever way a reply fails after bytes
// of it were read into the lent buffer — a body cut short, a 5xx, a
// payload past MaxBodyBytes declared or chunked, a batch cut short,
// misordered or with bytes to spare, the context dying mid-body —
// FetchInto and FetchBatchInto hand the caller's buffer back at its
// original length, prefix untouched, lens as it came; and the fetch
// after it, on a good reply, lands behind that same prefix.
func TestFetchIntoErrorsRestoreDst(t *testing.T) {
	const maxBody = 64
	ok := func(body string) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}
	chunked := func(body string) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	}
	long := strings.Repeat("x", maxBody+1)
	cases := map[string]struct {
		reply  string
		batch  bool
		hangUp bool // the origin closes after the reply; else it holds the connection open
	}{
		"body cut short":          {reply: "HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\ntwenty bytes of forty", hangUp: true},
		"chunked body cut short":  {reply: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n28\r\ntwenty bytes of forty", hangUp: true},
		"5xx":                     {reply: "HTTP/1.1 503 Busy\r\nContent-Length: 4\r\n\r\nbusy"},
		"declared past the bound": {reply: ok(long)},
		"chunked past the bound":  {reply: chunked(long)},
		"stalls mid-body":         {reply: "HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\ntwenty bytes of forty"},
		"batch cut short":         {reply: ok(frameRecords("first", "second")[:30]), batch: true},
		"batch misordered":        {reply: chunked(frameRecords("first")) /* id 1 where 2 … */, batch: true},
		"batch trailing bytes":    {reply: ok(frameRecords("first", "second") + "x"), batch: true},
		"batch record too long":   {reply: ok(frameRecords("first", long)), batch: true},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			o := newScriptedOrigin(t, 2, func(n int, c *originConn) {
				if n == 0 {
					c.request()
					c.send(tc.reply)
					if !tc.hangUp {
						c.request() // hold the connection open until the client closes it
					}
					return
				}
				for line := c.request(); line != ""; line = c.request() {
					if strings.Contains(line, "/batch") {
						c.reply(frameRecords("first", "second"))
					} else {
						c.reply("good")
					}
				}
			})
			c := newClient(t, Config{BaseURL: o.url, BatchPath: "/batch", MaxBodyBytes: maxBody})
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			dst := append(make([]byte, 0, 16), "head"...)
			lens := append(make([]int, 0, 4), 7)
			ids := []fetch.ID{1, 2}
			if name == "batch misordered" {
				ids = []fetch.ID{2}
			}
			fetchInto := func(ctx context.Context) ([]byte, []int, error) {
				if tc.batch {
					return c.FetchBatchInto(ctx, ids, dst, lens)
				}
				out, err := c.FetchInto(ctx, 1, dst)
				return out, lens, err
			}
			out, ls, err := fetchInto(ctx)
			if err == nil {
				t.Fatal("the fetch succeeded")
			}
			if name == "stalls mid-body" && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want the context's", err)
			}
			if len(out) != 4 || string(out) != "head" || &out[0] != &dst[0] || len(ls) != 1 || ls[0] != 7 {
				t.Fatalf("after %v the lent slices came back as %q and %v, want the caller's own at their original lengths", err, out, ls)
			}
			ids = []fetch.ID{1, 2}
			out, ls, err = fetchInto(context.Background())
			want, wantLens := "headgood", []int{7}
			if tc.batch {
				want, wantLens = "headfirstsecond", []int{7, 5, 6}
			}
			if err != nil || string(out) != want || !slices.Equal(ls, wantLens) {
				t.Fatalf("the next fetch landed %q with lens %v (err %v), want %q %v", out, ls, err, want, wantLens)
			}
		})
	}
}

// Without a batch endpoint FetchBatchInto fans out owned fetches and
// copies them in, in request order; an empty object appends nothing and
// still has its length.
func TestFetchBatchIntoFanout(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	o := newScriptedOrigin(t, 4, func(n int, c *originConn) {
		for line := c.request(); line != ""; line = c.request() {
			if target := strings.Fields(line)[1]; target == "/obj/2" {
				c.reply("")
			} else {
				c.reply(target)
			}
		}
	})
	c := newClient(t, Config{BaseURL: o.url})
	defer c.Close()
	out, lens, err := c.FetchBatchInto(context.Background(), []fetch.ID{1, 2, 3}, []byte("head"), nil)
	if err != nil || string(out) != "head/obj/1/obj/3" || !slices.Equal(lens, []int{6, 0, 6}) {
		t.Fatalf("FetchBatchInto = %q, %v, %v", out, lens, err)
	}
}
