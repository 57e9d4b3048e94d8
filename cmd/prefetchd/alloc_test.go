package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// One /batch of two resident 1 KiB objects through the connection loop
// allocates nothing: the ids are parsed from the read buffer into pooled
// scratch, the engine packs the payloads and their ranges into pooled
// scratch, and the records are framed straight into the pooled reply. A
// buffer that is not handed back shows here as allocations.
func TestWireBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	dir := t.TempDir()
	for _, name := range []string{"7", "8"} {
		if err := os.WriteFile(filepath.Join(dir, name), bytes.Repeat([]byte("x"), 1024), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := &Config{Spaces: []SpaceConfig{{
		Name: DefaultSpace, Policy: "none", Shards: 1,
		CacheBytes: 1 << 20, SegmentBytes: 64 << 10,
		Backends: []BackendConfig{{Name: "disk", Type: "fs", Root: dir}},
	}}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	lc := &loopConn{req: []byte("GET /batch?ids=7,8 HTTP/1.1\r\nHost: bench\r\n\r\n"), left: 2}
	c := &wireConn{f: &frontEnd{srv: srv}, nc: lc, ctx: context.Background(), buf: make([]byte, maxWireHead)}
	if c.serve() || lc.wrote < 4*1024 {
		t.Fatalf("warm-up: %d bytes written", lc.wrote)
	}
	if st := srv.spaces[DefaultSpace].engine.Stats(); st.Requests != 4 || st.Hits != 2 {
		t.Fatalf("warm-up: %d requests, %d hits; want 4, 2", st.Requests, st.Hits)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		lc.left = 1
		c.serve()
	})
	if allocs != 0 {
		t.Fatalf("a wire /batch hit allocated %v times; want 0", allocs)
	}
}

// newKiBOrigin is a raw TCP origin that answers every request head with
// one 1 KiB object under a Content-Length, allocating nothing per
// request, so that an allocation count is the daemon's alone.
func newKiBOrigin(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 1024\r\n\r\n"), make([]byte, 1024)...)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				buf := make([]byte, 4096)
				for have := 0; ; {
					m, err := nc.Read(buf[have:])
					if err != nil {
						return
					}
					if have += m; bytes.HasSuffix(buf[:have], []byte("\r\n\r\n")) {
						have = 0
						if _, err := nc.Write(reply); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// One /obj miss through the connection loop — recognise, engine, the
// origin wire's request, reply head and body, the slab's Put with the
// evictions it causes, head, Write — allocates nothing once the origin
// connection is pooled and the index has grown.
func TestWireMissAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	cfg := &Config{Spaces: []SpaceConfig{{
		Name: DefaultSpace, Policy: "none", Shards: 1,
		CacheBytes: 256 << 10, CacheCapacity: 8, SegmentBytes: 64 << 10,
		Backends: []BackendConfig{{Name: "origin", Type: "http", URL: newKiBOrigin(t)}},
	}}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	// The daemon's wire connections each carry a cancellable context, so
	// the origin wire's abort hook is really armed.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	lc := &loopConn{req: make([]byte, 0, 64)}
	c := &wireConn{f: &frontEnd{srv: srv}, nc: lc, ctx: ctx, buf: make([]byte, maxWireHead)}
	i := 0
	miss := func() {
		key := int64(i*97) % 4096 // every key back only after 4,095 others, long gone from an 8-entry cache
		lc.req = strconv.AppendInt(append(lc.req[:0], "GET /obj/"...), key, 10)
		lc.req = append(lc.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
		lc.left, lc.wrote = 1, 0
		if c.serve() || lc.wrote < 1024 {
			t.Fatalf("miss %d: %d bytes written", i, lc.wrote)
		}
		i++
	}
	for i < 2*4096 {
		miss()
	}
	allocs := testing.AllocsPerRun(500, miss)
	if st := srv.spaces[DefaultSpace].engine.Stats(); st.Hits != 0 || st.Misses != st.Requests {
		t.Fatalf("%d requests, %d hits, %d misses; every request must miss", st.Requests, st.Hits, st.Misses)
	}
	if allocs != 0 {
		t.Fatalf("a wire /obj miss allocated %v times; want 0", allocs)
	}
}
