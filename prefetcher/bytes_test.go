package prefetcher

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// bytePayload is the deterministic per-id payload the byte-path tests
// fetch and verify against.
func bytePayload(id ID, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(id)*17 + i*3 + 1)
	}
	return b
}

// newByteHitEngine mirrors newHitEngine with []byte payloads: the
// whole catalog resident, Markov successors resident, so sequential
// walks hit exclusively.
func newByteHitEngine(tb testing.TB, extra ...Option) (*Engine, []ID) {
	tb.Helper()
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1, Data: bytePayload(id, 64+int(id)%64)}, nil
	})
	const items = 64
	opts := append([]Option{
		WithBandwidth(1e6),
		WithShards(1),
		WithCache(NewLRUCache(4 * items)),
		WithWorkers(1),
		WithMaxPrefetch(2),
	}, extra...)
	eng, err := New(fetch, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]ID, items)
	for i := range ids {
		ids[i] = ID(i)
	}
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			if _, err := eng.Get(ctx, id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := eng.Quiesce(ctx); err != nil {
		tb.Fatal(err)
	}
	return eng, ids
}

// TestGetBytesServesHitsAndMisses pins the byte path's contract on a
// boxed cache: misses demand-fetch and append, hits append under the
// shard lock, dst accumulates, and the accounting matches Get's.
func TestGetBytesServesHitsAndMisses(t *testing.T) {
	eng, ids := newByteHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	dst := make([]byte, 0, 256)
	for _, id := range ids {
		out, err := eng.GetBytes(ctx, id, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		if want := bytePayload(id, 64+int(id)%64); !bytes.Equal(out, want) {
			t.Fatalf("GetBytes(%d) = %x, want %x", id, out, want)
		}
	}
	// Accumulation: two hits into one buffer, back to back.
	out, err := eng.GetBytes(ctx, ids[0], dst[:0])
	if err != nil {
		t.Fatal(err)
	}
	n0 := len(out)
	out, err = eng.GetBytes(ctx, ids[1], out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:n0], bytePayload(ids[0], 64+int(ids[0])%64)) ||
		!bytes.Equal(out[n0:], bytePayload(ids[1], 64+int(ids[1])%64)) {
		t.Fatal("GetBytes did not append to the caller's buffer")
	}
	// A genuinely new id is a demand miss.
	st0 := eng.Stats()
	fresh := ID(9000)
	out, err = eng.GetBytes(ctx, fresh, dst[:0])
	if err != nil {
		t.Fatal(err)
	}
	if want := bytePayload(fresh, 64+int(fresh)%64); !bytes.Equal(out, want) {
		t.Fatalf("GetBytes miss payload mismatch")
	}
	if st := eng.Stats(); st.Misses != st0.Misses+1 {
		t.Fatalf("miss not accounted: %d -> %d", st0.Misses, st.Misses)
	}
}

func TestGetBytesLen(t *testing.T) {
	eng, ids := newByteHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	for _, id := range ids {
		n, err := eng.GetBytesLen(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if want := 64 + int(id)%64; n != want {
			t.Fatalf("GetBytesLen(%d) = %d, want %d", id, n, want)
		}
	}
	// A miss demand-fetches and reports the fetched length.
	n, err := eng.GetBytesLen(ctx, 9001)
	if err != nil {
		t.Fatal(err)
	}
	if want := 64 + 9001%64; n != want {
		t.Fatalf("GetBytesLen miss = %d, want %d", n, want)
	}
}

// TestGetBytesNotBytes pins the non-byte payload semantics: the item
// stays cached and Get-servable, the byte path reports ErrNotBytes,
// and the hit accounting is not double-counted.
func TestGetBytesNotBytes(t *testing.T) {
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1, Data: fmt.Sprintf("val-%d", id)}, nil
	})
	eng, err := New(fetch,
		WithBandwidth(1e6), WithShards(1),
		WithCache(NewLRUCache(64)), WithWorkers(1), WithMaxPrefetch(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	// Miss path: the fetched payload is not bytes.
	if _, err := eng.GetBytes(ctx, 1, nil); !errors.Is(err, ErrNotBytes) {
		t.Fatalf("GetBytes miss on non-byte payload: err = %v, want ErrNotBytes", err)
	}
	st0 := eng.Stats()
	// Hit path: resident non-byte payload declines the fast path and is
	// served (and counted) once by the boxed machinery.
	if _, err := eng.GetBytes(ctx, 1, nil); !errors.Is(err, ErrNotBytes) {
		t.Fatalf("GetBytes hit on non-byte payload: err = %v, want ErrNotBytes", err)
	}
	if _, err := eng.GetBytesLen(ctx, 1); !errors.Is(err, ErrNotBytes) {
		t.Fatalf("GetBytesLen on non-byte payload: err = %v, want ErrNotBytes", err)
	}
	st := eng.Stats()
	if hits := st.Hits - st0.Hits; hits != 2 {
		t.Fatalf("non-byte hits counted %d times over two requests, want 2", hits)
	}
	// The ordinary path still serves it.
	it, err := eng.Get(ctx, 1)
	if err != nil || it.Data.(string) != "val-1" {
		t.Fatalf("Get after byte refusals = %+v, %v", it, err)
	}
}

// TestGetMultiBytes pins the session byte path on a boxed cache: mixed
// hits and misses pack back to back into buf with index-aligned
// ranges.
func TestGetMultiBytes(t *testing.T) {
	eng, ids := newByteHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	session := []ID{ids[3], 7001, ids[5], ids[3], 7002} // hits, misses, duplicate
	buf := make([]byte, 0, 1024)
	ranges := make([]ByteRange, 0, len(session))
	buf, ranges, err := eng.GetMultiBytes(ctx, session, buf, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != len(session) {
		t.Fatalf("got %d ranges for %d ids", len(ranges), len(session))
	}
	for i, id := range session {
		r := ranges[i]
		if r.Off < 0 || r.Off+r.Len > len(buf) {
			t.Fatalf("range %d out of bounds: %+v (buf %d)", i, r, len(buf))
		}
		want := bytePayload(id, 64+int(id)%64)
		if got := buf[r.Off : r.Off+r.Len]; !bytes.Equal(got, want) {
			t.Fatalf("session[%d]=%d payload mismatch", i, id)
		}
	}
}

// TestGetMultiBytesPartialFailure pins per-key failure semantics:
// failed keys get {-1,-1} ranges and KeyErrors while the rest of the
// session is served.
func TestGetMultiBytesPartialFailure(t *testing.T) {
	fetchErr := errors.New("origin down")
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		if id >= 100 {
			return Item{}, fetchErr
		}
		return Item{ID: id, Size: 1, Data: bytePayload(id, 32)}, nil
	})
	eng, err := New(fetch,
		WithBandwidth(1e6), WithShards(2),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }),
		WithWorkers(1), WithMaxPrefetch(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	session := []ID{1, 100, 2, 101}
	buf, ranges, err := eng.GetMultiBytes(ctx, session, nil, nil)
	var merr *MultiError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want *MultiError", err)
	}
	if len(merr.Errors) != 2 {
		t.Fatalf("%d key errors, want 2", len(merr.Errors))
	}
	for _, ke := range merr.Errors {
		if !errors.Is(ke, fetchErr) {
			t.Fatalf("key error %v does not wrap the origin error", ke)
		}
	}
	for i, id := range session {
		r := ranges[i]
		if id >= 100 {
			if r.Off != -1 || r.Len != -1 {
				t.Fatalf("failed key %d range = %+v, want {-1,-1}", id, r)
			}
			continue
		}
		if !bytes.Equal(buf[r.Off:r.Off+r.Len], bytePayload(id, 32)) {
			t.Fatalf("served key %d payload mismatch", id)
		}
	}
	// Non-byte payloads fail per key with ErrNotBytes.
	strFetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1, Data: "str"}, nil
	})
	eng2, err := New(strFetch,
		WithBandwidth(1e6), WithShards(1),
		WithCache(NewLRUCache(16)), WithWorkers(1), WithMaxPrefetch(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	// Twice: once via the miss assembly, once via the resident-hit path.
	for pass := 0; pass < 2; pass++ {
		_, ranges, err := eng2.GetMultiBytes(ctx, []ID{1, 2}, nil, nil)
		if !errors.As(err, &merr) {
			t.Fatalf("pass %d: err = %v, want *MultiError", pass, err)
		}
		for i, r := range ranges {
			if r.Off != -1 || r.Len != -1 {
				t.Fatalf("pass %d: non-byte key %d range = %+v", pass, i, r)
			}
		}
		for _, ke := range merr.Errors {
			if !errors.Is(ke, ErrNotBytes) {
				t.Fatalf("pass %d: key error %v, want ErrNotBytes", pass, ke)
			}
		}
	}
}

func TestGetBytesClosedAndCancelled(t *testing.T) {
	eng, ids := newByteHitEngine(t)
	ctx := context.Background()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.GetBytes(cctx, ids[0], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GetBytes err = %v", err)
	}
	if _, _, err := eng.GetMultiBytes(cctx, ids[:2], nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GetMultiBytes err = %v", err)
	}
	eng.Close()
	if _, err := eng.GetBytes(ctx, ids[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed GetBytes err = %v", err)
	}
	if _, err := eng.GetBytesLen(ctx, ids[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed GetBytesLen err = %v", err)
	}
	if _, _, err := eng.GetMultiBytes(ctx, ids[:2], nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed GetMultiBytes err = %v", err)
	}
}

// TestGetBytesAllocFree extends TestGetHitAllocFree to the byte path: a hit
// on the default store through GetBytes — prediction, accounting,
// planning and the payload append into a reused buffer — allocates
// nothing, and neither does GetBytesLen, the HEAD probe, which reads
// the length in place; the plans queue nothing, so dispatch does not
// yield. (The bytestore-backed equivalent is gated in
// prefetcher/bytestore.)
func TestGetBytesAllocFree(t *testing.T) {
	eng, ids := newByteHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	dst := make([]byte, 0, 256)
	i := 0
	for _, tc := range []struct {
		name string
		call func(ID) (int, error)
	}{
		{"GetBytes", func(id ID) (int, error) {
			var err error
			dst, err = eng.GetBytes(ctx, id, dst[:0])
			return len(dst), err
		}},
		{"GetBytesLen", func(id ID) (int, error) { return eng.GetBytesLen(ctx, id) }},
	} {
		before := eng.Stats()
		allocs := testing.AllocsPerRun(1000, func() {
			id := ids[i%len(ids)]
			if n, err := tc.call(id); err != nil || n != 64+int(id)%64 {
				t.Fatalf("%s(%d) = %d, %v", tc.name, id, n, err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("cache-hit %s allocated %v times per call; want 0", tc.name, allocs)
		}
		if st := eng.Stats(); st.Hits-before.Hits != st.Requests-before.Requests || st.PrefetchIssued != before.PrefetchIssued {
			t.Fatalf("%s: the measured requests must all hit and queue nothing, so dispatch never yields: %+v", tc.name, st)
		}
	}
}

// TestGetMultiBytesAllocFree: an all-hit byte session with reused
// buffers allocates nothing.
func TestGetMultiBytesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	eng, ids := newByteHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	const fanout = 8
	session := make([]ID, fanout)
	buf := make([]byte, 0, 4096)
	ranges := make([]ByteRange, 0, fanout)
	fill := func(base int) {
		for k := range session {
			session[k] = ids[(base+k)%len(ids)]
		}
	}
	for w := 0; w < 2; w++ {
		fill(w)
		var err error
		if buf, ranges, err = eng.GetMultiBytes(ctx, session, buf, ranges); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		fill(i)
		var err error
		buf, ranges, err = eng.GetMultiBytes(ctx, session, buf, ranges)
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("all-hit GetMultiBytes allocated %v times per session; want 0", allocs)
	}
}

// TestGetBytesConcurrent races byte readers against demand-driven
// eviction churn on a small boxed cache: every returned payload must be
// internally consistent (the copy is taken under the shard lock, so a
// concurrent eviction must never yield torn bytes).
func TestGetBytesConcurrent(t *testing.T) {
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1, Data: bytePayload(id, 64+int(id)%64)}, nil
	})
	eng, err := New(fetch,
		WithBandwidth(1e6), WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(16) }),
		WithWorkers(2), WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dst := make([]byte, 0, 256)
			ranges := make([]ByteRange, 0, 4)
			session := make([]ID, 4)
			for i := 0; i < 400; i++ {
				id := ID((c*37 + i) % 200) // far beyond the cache: constant churn
				var err error
				dst, err = eng.GetBytes(ctx, id, dst[:0])
				if err != nil {
					t.Error(err)
					return
				}
				if want := bytePayload(id, 64+int(id)%64); !bytes.Equal(dst, want) {
					t.Errorf("torn GetBytes payload for %d", id)
					return
				}
				for k := range session {
					session[k] = ID((c*37 + i + k) % 200)
				}
				var buf []byte
				buf, ranges, err = eng.GetMultiBytes(ctx, session, dst[:0], ranges)
				if err != nil {
					t.Error(err)
					return
				}
				dst = buf
				for k, id := range session {
					r := ranges[k]
					if want := bytePayload(id, 64+int(id)%64); !bytes.Equal(buf[r.Off:r.Off+r.Len], want) {
						t.Errorf("torn GetMultiBytes payload for %d", id)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}
