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
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// faultyBody is what the faulty origin's objects are made of: a marker no
// reply of the daemon's own ever contains.
func faultyBody(id, n int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("ORIGIN-BYTES-%d;", id)), n/14+1)[:n]
}

// newFaultyOrigin is a raw-TCP origin of 3000-byte objects that fails
// the way each key's hundreds digit says, after sending its reply's head
// and the first 1000 bytes of a body the daemon — on a slab-backed space
// — is by then reading straight into the request's own reply buffer:
//
//	1xx  hangs up mid-body
//	2xx  stalls mid-body until the test ends
//	3xx  answers whole, after 50 ms
//	else answers whole at once
//
// and answers /batch with a frame cut short inside its second record.
func newFaultyOrigin(t *testing.T, requests *atomic.Int64) string {
	t.Helper()
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	serve := func(c net.Conn) {
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			var target string
			for first := true; ; first = false {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if first {
					target = strings.Fields(line)[1]
				}
				if line == "\r\n" {
					break
				}
			}
			requests.Add(1)
			var id int
			if _, err := fmt.Sscanf(target, "/obj/%d", &id); err != nil { // the batch endpoint
				var frame bytes.Buffer
				httpfetch.WriteBatchItem(&frame, 5, faultyBody(5, 3000))
				httpfetch.WriteBatchItem(&frame, 106, faultyBody(106, 3000))
				fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", frame.Len())
				c.Write(frame.Bytes()[:4000])
				return
			}
			body := faultyBody(id, 3000)
			if id/100 == 3 {
				time.Sleep(50 * time.Millisecond)
			}
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
			switch id / 100 {
			case 1:
				c.Write(body[:1000])
				return
			case 2:
				c.Write(body[:1000])
				<-done
				return
			}
			c.Write(body)
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return "http://" + ln.Addr().String()
}

// ROADMAP 6(c) at the daemon, on the path where a miss is read from the
// origin socket into the pooled reply buffer itself: an origin that dies
// mid-body, one that stalls (bounded by the demand timeout) and a batch
// frame cut short each answer with http.Error's body and not one origin
// byte, cache nothing and leave nothing in flight; the buffer goes back
// to the pool at len == headRoom; and a client that hangs up mid-miss
// neither stops the landing nor leaks.
func TestMissFailuresLeaveNoOriginBytes(t *testing.T) {
	defer testutil.ExpectNoLeaks(t)
	var requests atomic.Int64
	cfg := oneSpaceConfig(newFaultyOrigin(t, &requests))
	sp := &cfg.Spaces[0]
	sp.Policy = "none"
	sp.CacheBytes, sp.SegmentBytes, sp.CacheCapacity = 1<<20, 64<<10, 256
	sp.Backends[0].DemandTimeout = Duration(100 * time.Millisecond)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, srv)
	stats := func() (st struct {
		Requests, Misses, Hits int64
		CacheLen, InFlight     int
	}) {
		t.Helper()
		resp, err := viaMux.Get(front + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply struct {
			Spaces map[string]json.RawMessage `json:"spaces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(reply.Spaces[DefaultSpace], &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// The reply core itself, on a buffer with room for the body: the read
	// that failed did land origin bytes behind headRoom — past the length
	// the buffer comes back at, where nothing sends them.
	ctx := context.Background()
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/obj/101", http.StatusBadGateway},
		{"/obj/201", http.StatusGatewayTimeout},
	} {
		rb := &replyBuf{b: make([]byte, headRoom, 8192)}
		status, n := srv.obj(ctx, rb, false, tc.path)
		if want := http.StatusText(tc.want) + "\n"; status != tc.want || string(rb.b[headRoom:]) != want || n != len(want) {
			t.Fatalf("%s: status %d, body %q (Content-Length %d); want %d and its text alone", tc.path, status, rb.b[headRoom:], n, tc.want)
		}
		if !bytes.Contains(rb.b[:cap(rb.b)], []byte("ORIGIN-BYTES")) {
			t.Fatalf("%s: the body was not read into the reply buffer: this test no longer covers the lent path", tc.path)
		}
		// The pool's now: the next request to draw it finds len == headRoom
		// whatever lies behind it.
		putBuf(rb)
	}
	rb := bufPool.Get().(*replyBuf)
	if len(rb.b) != headRoom {
		t.Fatalf("a pooled buffer is %d long, want headRoom", len(rb.b))
	}
	if status, n := srv.obj(ctx, rb, false, "/obj/7"); status != http.StatusOK || n != 3000 || !bytes.Equal(rb.b[headRoom:], faultyBody(7, 3000)) {
		t.Fatalf("/obj/7 after the failures: status %d, %d bytes", status, n)
	}
	putBuf(rb)

	// Over the socket, both tiers: the same replies, byte for byte.
	for _, client := range []*http.Client{http.DefaultClient, viaMux} {
		for path, want := range map[string]int{
			"/obj/102":         http.StatusBadGateway,
			"/obj/202":         http.StatusGatewayTimeout,
			"/batch?ids=5,106": http.StatusBadGateway, // frame cut short, then 106 dies in the per-key fallback
		} {
			resp, err := client.Get(front + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want || string(body) != http.StatusText(want)+"\n" {
				t.Errorf("%s: %d %q, want %d and its text alone", path, resp.StatusCode, body, want)
			}
		}
	}
	// What failed left nothing; what the fallback did fetch (5) is cached.
	if st := stats(); st.CacheLen != 2 || st.InFlight != 0 {
		t.Fatalf("after the failures: %+v, want keys 7 and 5 resident and nothing in flight", st)
	}
	tier, err := httpfetch.New(httpfetch.Config{BaseURL: front})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	before := requests.Load()
	if item, err := tier.Fetch(ctx, 5); err != nil || !bytes.Equal(item.Data.([]byte), faultyBody(5, 3000)) {
		t.Fatalf("key 5, landed by the fallback beside a failing key: %v", err)
	}

	// A client gone mid-miss: the fetch completes, lands and is a hit for
	// the next client without another origin request.
	c := dialRaw(t, strings.TrimPrefix(front, "http://"))
	c.send("GET /obj/301 HTTP/1.1\r\nHost: x\r\n\r\n")
	c.nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for stats().CacheLen != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("the abandoned miss never landed: %+v", stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if item, err := tier.Fetch(ctx, fetch.ID(301)); err != nil || !bytes.Equal(item.Data.([]byte), faultyBody(301, 3000)) {
		t.Fatalf("key 301 after its client hung up: %v", err)
	}
	if st := stats(); requests.Load() != before+1 || st.InFlight != 0 {
		t.Fatalf("want one origin request for 301 and nothing in flight: %d requests, %+v", requests.Load()-before, st)
	}
}
