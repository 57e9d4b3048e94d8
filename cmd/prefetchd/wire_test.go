package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// rawClient is a scripted raw-TCP client: it writes bytes as given and
// reads replies with http.ReadResponse, keeping every reply byte.
type rawClient struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	raw bytes.Buffer // every byte the server sent
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	c := &rawClient{t: t, nc: nc}
	c.br = bufio.NewReader(io.TeeReader(nc, &c.raw))
	return c
}

func (c *rawClient) send(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatalf("send %q: %v", s, err)
	}
}

// reply reads one reply to a request of the given method.
func (c *rawClient) reply(method string) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		c.t.Fatalf("reading the reply to a %s: %v (received so far: %q)", method, err, c.raw.String())
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("reading the reply body: %v", err)
	}
	return resp, body
}

// expectClosed requires that the server has closed the connection with
// nothing more sent.
func (c *rawClient) expectClosed() {
	c.t.Helper()
	if b, err := c.br.ReadByte(); err != io.EOF {
		c.t.Fatalf("connection not closed: read %q, %v", b, err)
	}
}

var dateLine = regexp.MustCompile(`\r\nDate: [^\r]*`)

// transcript is everything the server sent, its Date values blanked.
func (c *rawClient) transcript() string {
	return dateLine.ReplaceAllString(c.raw.String(), "\r\nDate: -")
}

// step is one write of a script and the replies to read after it.
type step struct {
	send    string
	replies []string // the method of each request the bytes complete
}

// play runs a script on one connection and returns the transcript. A
// last reply that says Connection: close must be followed by the close.
func play(t *testing.T, addr string, script []step) string {
	t.Helper()
	c := dialRaw(t, addr)
	var last *http.Response
	for _, st := range script {
		c.send(st.send)
		for _, method := range st.replies {
			last, _ = c.reply(method)
		}
	}
	if last != nil && last.Close {
		c.expectClosed()
	}
	return c.transcript()
}

const hostLine = "Host: prefetchd.test\r\n\r\n"

// wireScript is traffic the wire loop serves itself, on one connection.
func wireScript() []step {
	var oneByOne []step
	for _, b := range []byte("GET /obj/3 HTTP/1.1\r\n" + hostLine) {
		oneByOne = append(oneByOne, step{send: string(b)})
	}
	oneByOne[len(oneByOne)-1].replies = []string{"GET"}
	tooMany := strings.TrimSuffix(strings.Repeat("7,", maxBatchIDs+1), ",")
	return append(append([]step{
		{"GET /obj/1 HTTP/1.1\r\n" + hostLine + "GET /obj/2 HTTP/1.1\r\n" + hostLine, []string{"GET", "GET"}},
	}, oneByOne...), []step{
		{"GET /obj/1 HTTP/1.1\r\nuser-agent: raw/1.0\r\nhost: localhost:8080\r\nAccept: */*\r\n\r\n", []string{"GET"}},
		{"HEAD /obj/default/2 HTTP/1.1\r\n" + hostLine, []string{"HEAD"}},
		{"GET /batch?ids=1,2,3 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"GET /batch/default?ids=-4 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"GET /obj/abc HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"HEAD /obj/abc HTTP/1.1\r\n" + hostLine, []string{"HEAD"}},
		{"GET /obj/nope/1 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"GET /batch/nope?ids=1 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"GET /batch?ids=1,x HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"GET /batch?ids=" + tooMany + " HTTP/1.1\r\n" + hostLine, []string{"GET"}},
		{"GET /healthz HTTP/1.1\r\n" + hostLine, []string{"GET"}},
	}...)
}

// handoffRequests are requests the wire loop must not answer itself,
// one per connection; net/http answers each.
var handoffRequests = map[string]step{
	"missing Host":       {"GET /obj/1 HTTP/1.1\r\n\r\n", []string{"GET"}},
	"two Hosts":          {"GET /obj/1 HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", []string{"GET"}},
	"bad Host":           {"GET /obj/1 HTTP/1.1\r\nHost: a b\r\n\r\n", []string{"GET"}},
	"HTTP/1.0":           {"GET /obj/1 HTTP/1.0\r\n\r\n", []string{"GET"}},
	"Connection: close":  {"GET /obj/1 HTTP/1.1\r\nConnection: close\r\n" + hostLine, []string{"GET"}},
	"POST with a body":   {"POST /obj/1 HTTP/1.1\r\nContent-Length: 3\r\nHost: x\r\n\r\nabc", []string{"POST"}},
	"GET with a body":    {"GET /obj/1 HTTP/1.1\r\nContent-Length: 3\r\nHost: x\r\n\r\nabcGET /obj/2 HTTP/1.1\r\n" + hostLine, []string{"GET", "GET"}},
	"query on /obj":      {"GET /obj/1?x=1 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
	"escape":             {"GET /obj/%31 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
	"dot segment":        {"GET /obj/./1 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
	"second parameter":   {"GET /batch?ids=1&ids=2 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
	"HEAD /batch":        {"HEAD /batch?ids=1 HTTP/1.1\r\n" + hostLine, []string{"HEAD"}},
	"HEAD /healthz":      {"HEAD /healthz HTTP/1.1\r\n" + hostLine, []string{"HEAD"}},
	"unknown path":       {"GET /nothing HTTP/1.1\r\n" + hostLine, []string{"GET"}},
	"bare LF":            {"GET /obj/1 HTTP/1.1\nHost: x\n\n", []string{"GET"}},
	"bare LF ends head":  {"GET /obj/1 HTTP/1.1\r\nHost: x\r\n\nGET /obj/2 HTTP/1.1\r\n" + hostLine, []string{"GET", "GET"}},
	"folded header":      {"GET /obj/1 HTTP/1.1\r\nX-A: b\r\n c\r\n" + hostLine, []string{"GET"}},
	"space before colon": {"GET /obj/1 HTTP/1.1\r\nHost : x\r\n\r\n", []string{"GET"}},
	"control in a value": {"GET /obj/1 HTTP/1.1\r\nX-A: b\x01\r\n" + hostLine, []string{"GET"}},
	"5 KiB head":         {"GET /obj/1 HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 5<<10) + "\r\n" + hostLine, []string{"GET"}},
	"not a request line": {"hello\r\n", []string{"GET"}},
	"HTTP/2 preface":     {"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", []string{"PRI"}},
	"empty first line":   {"\r\nGET /obj/1 HTTP/1.1\r\n" + hostLine, []string{"GET"}},
}

// conformanceServer boots one Server behind both the daemon's front end
// and, for reference, a plain net/http server; handoffs counts the
// connections the front end has handed to its mux.
func conformanceServer(t *testing.T) (fe *frontEnd, front, ref string, handoffs *atomic.Int64) {
	origin := newTestOrigin(t, nil, nil)
	cfg := oneSpaceConfig(origin.URL)
	cfg.Spaces[0].Policy = "none"
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	fe = newFrontEnd(srv, ln)
	handoffs = new(atomic.Int64)
	fe.mux.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			handoffs.Add(1)
		}
	}
	runFront(t, fe, srv)
	refSrv := httptest.NewServer(srv.Handler())
	t.Cleanup(refSrv.Close) // before the front end's cleanup closes the engines
	return fe, ln.Addr().String(), strings.TrimPrefix(refSrv.URL, "http://"), handoffs
}

// The wire loop's replies are, but for the Date's value, the bytes
// net/http sends for the same requests through the mux adapters; and the
// wire loop serves all of them itself.
func TestWireConformance(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	_, front, ref, handoffs := conformanceServer(t)

	got, want := play(t, front, wireScript()), play(t, ref, wireScript())
	if got != want {
		t.Errorf("wire loop and net/http differ.\nwire loop:\n%q\nnet/http:\n%q", got, want)
	}
	if n := handoffs.Load(); n != 0 {
		t.Errorf("%d connections handed off by a script the wire loop should serve", n)
	}

	// What the transcript must contain, whoever it agrees with.
	c := dialRaw(t, front)
	c.send("HEAD /obj/default/2 HTTP/1.1\r\n" + hostLine + "GET /batch?ids=1,2,3 HTTP/1.1\r\n" + hostLine)
	resp, body := c.reply("HEAD")
	if want := fmt.Sprint(len(originPayload(2))); resp.StatusCode != 200 || resp.Header.Get("Content-Length") != want || len(body) != 0 {
		t.Errorf("HEAD: status %d, Content-Length %q (want %s), %d body bytes", resp.StatusCode, resp.Header.Get("Content-Length"), want, len(body))
	}
	resp, body = c.reply("GET")
	ids := []fetch.ID{1, 2, 3}
	items, err := httpfetch.ReadBatch(bytes.NewReader(body), ids, 1<<20)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/batch: status %d, decode: %v", resp.StatusCode, err)
	}
	for i, id := range ids {
		if !bytes.Equal(items[i].Data.([]byte), originPayload(int64(id))) {
			t.Errorf("/batch item %d = %q", i, items[i].Data)
		}
	}
	if _, err := time.Parse(http.TimeFormat, resp.Header.Get("Date")); err != nil {
		t.Errorf("Date %q: %v", resp.Header.Get("Date"), err)
	}
	for _, tc := range []struct {
		target string
		status int
		body   string
	}{
		{"/obj/abc", 400, "bad key\n"},
		{"/obj/nope/1", 404, "unknown space\n"},
		{"/batch?ids=" + strings.Repeat("7,", maxBatchIDs) + "7", 400, fmt.Sprintf("more than %d ids in one batch\n", maxBatchIDs)},
	} {
		c.send("GET " + tc.target + " HTTP/1.1\r\n" + hostLine)
		resp, body := c.reply("GET")
		if resp.StatusCode != tc.status || string(body) != tc.body || resp.Header.Get("X-Content-Type-Options") != "nosniff" {
			t.Errorf("%.20s: %d %q %v", tc.target, resp.StatusCode, body, resp.Header)
		}
	}
	if n := handoffs.Load(); n != 0 {
		t.Errorf("%d connections handed off", n)
	}
}

// Whatever the wire loop does not recognise is net/http's: answered with
// the bytes a plain net/http server sends, pipelined tail included.
func TestWireHandoff(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	fe, front, ref, handoffs := conformanceServer(t)

	for name, st := range handoffRequests {
		before := handoffs.Load()
		got, want := play(t, front, []step{st}), play(t, ref, []step{st})
		if got != want {
			t.Errorf("%s: front end and net/http differ.\nfront end:\n%q\nnet/http:\n%q", name, got, want)
		}
		if handoffs.Load() != before+1 {
			t.Errorf("%s: served by the wire loop", name)
		}
	}

	// /stats goes to the mux with the pipelined /obj behind it, and the
	// connection stays there: the mux serves /obj, and later requests.
	before := handoffs.Load()
	c := dialRaw(t, front)
	c.send("GET /obj/1 HTTP/1.1\r\n" + hostLine)
	c.reply("GET")
	c.send("GET /stats HTTP/1.1\r\n" + hostLine + "GET /obj/2 HTTP/1.1\r\n" + hostLine)
	resp, body := c.reply("GET")
	var stats statsReply
	if err := json.Unmarshal(body, &stats); err != nil || resp.StatusCode != 200 {
		t.Fatalf("/stats: %d, %v", resp.StatusCode, err)
	}
	if resp, body = c.reply("GET"); resp.StatusCode != 200 || !bytes.Equal(body, originPayload(2)) {
		t.Fatalf("/obj/2 behind /stats: %d %q", resp.StatusCode, body)
	}
	c.send("GET /obj/3 HTTP/1.1\r\n" + hostLine)
	if resp, body = c.reply("GET"); resp.StatusCode != 200 || !bytes.Equal(body, originPayload(3)) {
		t.Fatalf("/obj/3 after the handoff: %d %q", resp.StatusCode, body)
	}
	if n := handoffs.Load() - before; n != 1 {
		t.Errorf("%d handoffs for one connection, want 1", n)
	}

	// A client that goes away mid-head is dropped without a reply.
	nc, err := net.Dial("tcp", front)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(nc, "GET /obj/1 HT")
	nc.Close()
	c.nc.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		fe.mu.Lock()
		n := len(fe.conns)
		fe.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d wire connections still open", n)
		}
	}
}

// FuzzWireHead holds the recogniser to net/http's reader: what it
// accepts, http.ReadRequest reads as the same request ending at the same
// byte; it never waits where ReadRequest has a whole request; and its
// verdict does not depend on bytes past the head.
func FuzzWireHead(f *testing.F) {
	for _, st := range wireScript() {
		if len(st.send) > 1 {
			f.Add([]byte(st.send))
		}
	}
	for _, st := range handoffRequests {
		f.Add([]byte(st.send))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, n, v := recognise(data)
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		hr, err := http.ReadRequest(br)
		switch v {
		case needMore:
			if err == nil {
				t.Fatalf("recognise waits for more of %q, which http.ReadRequest reads", data)
			}
			return
		case accept:
			if err != nil {
				t.Fatalf("recognise accepts %q, http.ReadRequest: %v", data[:n], err)
			}
			method, path := "GET", string(req.path)
			if req.head {
				method = "HEAD"
			}
			if hr.Method != method || hr.URL.Path != path || hr.URL.Query().Get("ids") != string(req.ids) ||
				(req.kind != 'b' && hr.URL.RawQuery != "") || hr.ContentLength != 0 || hr.Close || !hr.ProtoAtLeast(1, 1) {
				t.Fatalf("recognise read %q as %s %s ids=%q; http.ReadRequest as %s %s?%s (length %d, close %v, %s)",
					data[:n], method, path, req.ids, hr.Method, hr.URL.Path, hr.URL.RawQuery, hr.ContentLength, hr.Close, hr.Proto)
			}
			if want := map[byte]string{'o': "/obj/", 'b': "/batch", 'h': "/healthz"}[req.kind]; !strings.HasPrefix(path, want) {
				t.Fatalf("recognise read %q as kind %q", data[:n], req.kind)
			}
			if consumed := len(data) - src.Len() - br.Buffered(); consumed != n {
				t.Fatalf("recognise ends the head of %q at %d, http.ReadRequest at %d", data, n, consumed)
			}
			if _, n2, v2 := recognise(data[:n]); v2 != accept || n2 != n {
				t.Fatalf("recognise(%q) = %d, %v without the bytes behind the head", data[:n], n2, v2)
			}
			if _, _, v2 := recognise(data[:n-1]); v2 != needMore {
				t.Fatalf("recognise(%q) = %v, one byte short of a head", data[:n-1], v2)
			}
		}
		// accept or handOff: final, whatever arrives next.
		more := append(data[:len(data):len(data)], "\r\nGET /obj/1 HTTP/1.1\r\nHost: x\r\n\r\n"...)
		if _, n2, v2 := recognise(more); v2 != v || n2 != n {
			t.Fatalf("recognise(%q) = %d, %v; with more bytes behind it %d, %v", data, n, v, n2, v2)
		}
	})
}

// loopConn is an in-memory connection for the wire loop: Read yields one
// whole request, left times over, then EOF; Write counts.
type loopConn struct {
	net.Conn
	req   []byte
	left  int
	wrote int
}

func (c *loopConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	c.left--
	return copy(p, c.req), nil
}

func (c *loopConn) Write(p []byte) (int, error) {
	c.wrote += len(p)
	return len(p), nil
}

// newWireHit returns a wire connection over a loopConn asking for one
// 1 KiB object of a slab-backed space, already resident.
func newWireHit(tb testing.TB) (*wireConn, *loopConn) {
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "7"), bytes.Repeat([]byte("x"), 1024), 0o644); err != nil {
		tb.Fatal(err)
	}
	cfg := &Config{Spaces: []SpaceConfig{{
		Name: DefaultSpace, Policy: "none", Shards: 1,
		CacheBytes: 1 << 20, SegmentBytes: 64 << 10,
		Backends: []BackendConfig{{Name: "disk", Type: "fs", Root: dir}},
	}}}
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(cfg, tb.Logf)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Shutdown(context.Background()) })
	lc := &loopConn{req: []byte("GET /obj/7 HTTP/1.1\r\nHost: bench\r\n\r\n"), left: 2}
	c := &wireConn{f: &frontEnd{srv: srv}, nc: lc, ctx: context.Background(), buf: make([]byte, maxWireHead)}
	if c.serve() || lc.wrote < 2*1024 {
		tb.Fatalf("warm-up: %d bytes written", lc.wrote)
	}
	if st := srv.spaces[DefaultSpace].engine.Stats(); st.Requests != 2 || st.Hits != 1 {
		tb.Fatalf("warm-up: %d requests, %d hits; want 2, 1", st.Requests, st.Hits)
	}
	return c, lc
}

// One /obj hit through the connection loop — Read, recognise, engine,
// head, Write — allocates nothing.
func TestWireHitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	c, lc := newWireHit(t)
	allocs := testing.AllocsPerRun(1000, func() {
		lc.left = 1
		c.serve()
	})
	if allocs != 0 {
		t.Fatalf("a wire /obj hit allocated %v times; want 0", allocs)
	}
}

// BenchmarkWireObjHit is the front end's layer number: one exchange on
// the wire loop without the socket. Less BenchmarkGetBytesHit
// (prefetcher/) it is what the loop adds to an engine hit.
func BenchmarkWireObjHit(b *testing.B) {
	c, lc := newWireHit(b)
	lc.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	c.serve()
	if lc.left != 0 {
		b.Fatalf("%d requests unserved", lc.left)
	}
}
