package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// wireBatchAllocCeiling is what one resident /batch of two ids costs the
// wire loop, as measured: the parsed id list, the engine's byte ranges
// as they grow and a frame header per record among them. Every buffer
// on the way — the reply and the payload staging — is pooled.
const wireBatchAllocCeiling = 6

// One /batch of two resident 1 KiB objects through the connection loop
// stays at its ceiling: a pooled buffer that is not handed back shows
// here as two allocations more.
func TestWireBatchAllocCeiling(t *testing.T) {
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
	if allocs > wireBatchAllocCeiling {
		t.Fatalf("a wire /batch hit allocated %v times; ceiling %d", allocs, wireBatchAllocCeiling)
	}
}
