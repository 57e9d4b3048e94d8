package prefetcher_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
)

// This file tests the lent-buffer landing (fetch.IntoFetcher →
// Engine.land → BytesPutter): that it is indistinguishable from the
// owned-payload path it replaces, that nothing the engine keeps aliases
// a buffer it only borrowed, and that it allocates nothing.

var errOrigin = errors.New("origin refused")

// fillPayload writes id's payload, a pattern every byte of which
// depends on the id and its offset, over b.
func fillPayload(b []byte, id prefetcher.ID) {
	for i := range b {
		b[i] = byte(int(id)*31 + i*7 + i>>8)
	}
}

func wantPayload(id prefetcher.ID, n int) []byte {
	b := make([]byte, n)
	fillPayload(b, id)
	return b
}

// byteOrigin is an in-memory origin with every capability the fabric
// probes for: it serves size(id) pattern bytes per id, refuses the ids
// fail names, and — with yield set — parks in the middle of writing a
// payload, so that concurrent tests overlap fetches (joins) and give a
// reader of a half-written lent buffer every chance to be seen. before,
// when set, runs first in every fetch, batched ones included, and its
// error fails the fetch: it may wait, and may write past len(dst). With
// flat set every payload is that many bytes copied from one template —
// what a benchmark wants of an origin: nothing but the copy.
type byteOrigin struct {
	flat   []byte
	size   func(id prefetcher.ID) int
	fail   func(id prefetcher.ID) bool
	before func(ctx context.Context, id prefetcher.ID, dst []byte) error
	yield  bool
	calls  atomic.Int64
	lent   atomic.Int64 // calls handed a buffer with room in it: not Fetch's
}

func (o *byteOrigin) FetchInto(ctx context.Context, id prefetcher.ID, dst []byte) ([]byte, error) {
	o.calls.Add(1)
	if cap(dst) > 0 {
		o.lent.Add(1)
	}
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if o.before != nil {
		if err := o.before(ctx, id, dst); err != nil {
			return dst, err
		}
	}
	if o.fail != nil && o.fail(id) {
		return dst, errOrigin
	}
	if o.flat != nil {
		return append(dst, o.flat...), nil
	}
	n := o.size(id)
	out := slices.Grow(dst, n)[:len(dst)+n]
	if o.yield {
		clear(out[len(dst):])
		runtime.Gosched()
	}
	fillPayload(out[len(dst):], id)
	return out, nil
}

func (o *byteOrigin) Fetch(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
	data, err := o.FetchInto(ctx, id, nil)
	if err != nil {
		return prefetcher.Item{}, err
	}
	return prefetcher.Item{ID: id, Size: float64(len(data)), Data: data}, nil
}

func (o *byteOrigin) FetchBatchInto(ctx context.Context, ids []prefetcher.ID, dst []byte, lens []int) ([]byte, []int, error) {
	out, ls := dst, lens
	for _, id := range ids {
		n := len(out)
		var err error
		if out, err = o.FetchInto(ctx, id, out); err != nil {
			return dst, lens, err
		}
		ls = append(ls, len(out)-n)
	}
	return out, ls, nil
}

func (o *byteOrigin) FetchBatch(ctx context.Context, ids []prefetcher.ID) ([]prefetcher.Item, error) {
	items := make([]prefetcher.Item, len(ids))
	for i, id := range ids {
		var err error
		if items[i], err = o.Fetch(ctx, id); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// The views of a byteOrigin the fabric's probes can tell apart.
type (
	// ownedBatch hides the lent-buffer forms: Fetcher + BatchFetcher.
	ownedBatch struct{ o *byteOrigin }
	// intoSingle hides the batch forms: Fetcher + IntoFetcher.
	intoSingle struct{ o *byteOrigin }
	// ownedSingle hides everything but Fetch.
	ownedSingle struct{ o *byteOrigin }
)

func (w ownedBatch) Fetch(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
	return w.o.Fetch(ctx, id)
}
func (w ownedBatch) FetchBatch(ctx context.Context, ids []prefetcher.ID) ([]prefetcher.Item, error) {
	return w.o.FetchBatch(ctx, ids)
}
func (w intoSingle) Fetch(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
	return w.o.Fetch(ctx, id)
}
func (w intoSingle) FetchInto(ctx context.Context, id prefetcher.ID, dst []byte) ([]byte, error) {
	return w.o.FetchInto(ctx, id, dst)
}
func (w ownedSingle) Fetch(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
	return w.o.Fetch(ctx, id)
}

var (
	_ fetch.BatchIntoFetcher = (*byteOrigin)(nil)
	_ fetch.IntoFetcher      = (*byteOrigin)(nil)
	_ fetch.IntoFetcher      = intoSingle{}
)

// slabOption mounts a slab store per shard, sized so the traces below
// evict by count and by rotation.
func slabOption(t testing.TB, cfg bytestore.Config) prefetcher.Option {
	t.Helper()
	factory, err := bytestore.Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prefetcher.WithCacheFactory(factory)
}

// The equivalence trace: a 300-id cycle walked with occasional jumps,
// every fifth request an 8-key session, payloads of 100–1300 bytes, one
// id the origin refuses.
const (
	eqSpace   = 300
	eqFailing = prefetcher.ID(77)
)

func eqSize(id prefetcher.ID) int { return 100 + int(id)*37%1200 }

// eqWant is every id's payload, made once: the replays check a reply
// per request.
var eqWant = sync.OnceValue(func() (want [eqSpace][]byte) {
	for id := range want {
		want[id] = wantPayload(prefetcher.ID(id), eqSize(prefetcher.ID(id)))
	}
	return want
})

// eqRequest returns request i of the trace: one id, or a session of 8.
func eqRequest(i int, session []prefetcher.ID) []prefetcher.ID {
	at := i * 3
	if i%11 == 0 {
		at = i * 7919 // a jump: the chain the model learnt breaks here
	}
	n := 1
	if i%5 == 0 {
		n = 8
	}
	session = session[:0]
	for k := 0; k < n; k++ {
		session = append(session, prefetcher.ID((at+k)%eqSpace))
	}
	return session
}

// checkReply holds one reply to the payloads the origin serves: every
// served key's range carries its bytes, and exactly the refused id
// failed.
func checkReply(ids []prefetcher.ID, buf []byte, ranges []prefetcher.ByteRange, err error) error {
	want := eqWant()
	failed := map[int]bool{}
	var me *prefetcher.MultiError
	if errors.As(err, &me) {
		for _, ke := range me.Errors {
			if !errors.Is(ke.Err, errOrigin) {
				return fmt.Errorf("key %d failed with %v", ke.ID, ke.Err)
			}
			failed[ke.Index] = true
		}
	} else if err != nil {
		return err
	}
	for k, id := range ids {
		if failed[k] != (id == eqFailing) {
			return fmt.Errorf("key %d (index %d): failed = %v", id, k, failed[k])
		}
		if failed[k] {
			if ranges[k] != (prefetcher.ByteRange{Off: -1, Len: -1}) {
				return fmt.Errorf("failed key %d has range %+v", id, ranges[k])
			}
			continue
		}
		if got := buf[ranges[k].Off : ranges[k].Off+ranges[k].Len]; !bytes.Equal(got, want[id]) {
			return fmt.Errorf("key %d (index %d): %d bytes at %d are not its payload", id, k, ranges[k].Len, ranges[k].Off)
		}
	}
	return nil
}

type eqOutcome struct {
	replies []uint64 // per request: a hash of the reply's bytes, ranges and error
	events  []string // sorted within each request's quiesced window
	stats   prefetcher.Stats
}

// runEqSequential replays the trace from one goroutine, quiesced after
// every request so that speculative landings fall at the same point of
// the stream on every run.
func runEqSequential(t *testing.T, origin prefetcher.Fetcher, k, requests int) eqOutcome {
	t.Helper()
	var out eqOutcome
	var mu sync.Mutex
	clock := prefetcher.NewManualClock(time.Unix(0, 0))
	eng, err := prefetcher.New(origin,
		slabOption(t, bytestore.Config{CapacityBytes: 48 << 10, MaxEntries: 96, SegmentBytes: 4 << 10}),
		prefetcher.WithShards(2),
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithClock(clock),
		prefetcher.WithPolicy(prefetcher.TopK(k)),
		prefetcher.WithMaxPrefetch(k),
		prefetcher.WithWorkers(2),
		prefetcher.WithEventHook(func(ev prefetcher.Event) {
			mu.Lock()
			out.events = append(out.events, fmt.Sprintf("%v(%d)", ev.Type, ev.ID))
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var buf []byte
	var ranges []prefetcher.ByteRange
	session := make([]prefetcher.ID, 0, 8)
	window := 0
	for i := 0; i < requests; i++ {
		ids := eqRequest(i, session)
		var err error
		if len(ids) == 1 {
			// The singleton view, on a buffer with a prefix to preserve.
			buf = append(buf[:0], "head"...)
			if buf, err = eng.GetBytes(ctx, ids[0], buf); err == nil {
				ranges = append(ranges[:0], prefetcher.ByteRange{Off: 4, Len: len(buf) - 4})
			} else {
				ranges = append(ranges[:0], prefetcher.ByteRange{Off: -1, Len: -1})
				err = &prefetcher.MultiError{Errors: []prefetcher.KeyError{{ID: ids[0], Err: err}}}
			}
			if string(buf[:4]) != "head" {
				t.Fatalf("request %d: GetBytes changed the prefix of the caller's buffer", i)
			}
		} else {
			buf, ranges, err = eng.GetMultiBytes(ctx, ids, buf, ranges)
		}
		if cerr := checkReply(ids, buf, ranges, err); cerr != nil {
			t.Fatalf("request %d %v: %v", i, ids, cerr)
		}
		h := fnv.New64a()
		h.Write(buf)
		fmt.Fprint(h, ranges, err)
		out.replies = append(out.replies, h.Sum64())
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		// A worker's prefetch-done can overtake the requester's
		// prefetch-issued on the way to the hook: one multiset per window.
		mu.Lock()
		sort.Strings(out.events[window:])
		window = len(out.events)
		mu.Unlock()
		clock.AdvanceSeconds(0.001)
	}
	prefetcher.QuiesceAndCheck(t, eng)
	out.stats = eng.Stats()
	return out
}

// runEqConcurrent drives the trace from eight goroutines at once over a
// yielding origin: fetches overlap, requests join each other's flights
// and the workers', and every reply must still be its keys' payloads.
func runEqConcurrent(t *testing.T, origin prefetcher.Fetcher, k, requests int) prefetcher.Stats {
	t.Helper()
	eng, err := prefetcher.New(origin,
		slabOption(t, bytestore.Config{CapacityBytes: 48 << 10, MaxEntries: 96, SegmentBytes: 4 << 10}),
		prefetcher.WithShards(2),
		prefetcher.WithBandwidth(1e9),
		prefetcher.WithPolicy(prefetcher.TopK(k)),
		prefetcher.WithMaxPrefetch(k),
		prefetcher.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			var ranges []prefetcher.ByteRange
			session := make([]prefetcher.ID, 0, 8)
			for i := g % 2; i < requests; i += 2 { // four goroutines per request: they collide
				ids := eqRequest(i, session)
				var err error
				buf, ranges, err = eng.GetMultiBytes(ctx, ids, buf, ranges)
				if cerr := checkReply(ids, buf, ranges, err); cerr != nil {
					t.Errorf("goroutine %d request %d %v: %v", g, i, ids, cerr)
					return
				}
				// What the engine lent the fetch is the caller's again.
				for j := range buf {
					buf[j] = 0xEE
				}
			}
		}(g)
	}
	wg.Wait()
	prefetcher.QuiesceAndCheck(t, eng)
	return eng.Stats()
}

// TestLandingEquivalence replays one trace — singletons and 8-key
// sessions, hits, misses, speculative landings used and wasted, an id
// the origin refuses — through a slab engine over a fetcher that reads
// into lent buffers and over the same fetcher with that capability
// hidden, and requires the two to be indistinguishable: the same reply
// bytes, Stats and events request by request from one goroutine; the
// right bytes and balanced books from eight.
func TestLandingEquivalence(t *testing.T) {
	requests := 20000
	if testing.Short() {
		requests = 4000
	}
	for _, tc := range []struct {
		name string
		// k candidates per request. A backend that cannot batch gets one
		// job per candidate, and two jobs would land in either order.
		k           int
		into, owned func(*byteOrigin) prefetcher.Fetcher
	}{
		{"batch", 2,
			func(o *byteOrigin) prefetcher.Fetcher { return o },
			func(o *byteOrigin) prefetcher.Fetcher { return ownedBatch{o} }},
		{"single", 1,
			func(o *byteOrigin) prefetcher.Fetcher { return intoSingle{o} },
			func(o *byteOrigin) prefetcher.Fetcher { return ownedSingle{o} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin := func(yield bool) *byteOrigin {
				return &byteOrigin{size: eqSize, fail: func(id prefetcher.ID) bool { return id == eqFailing }, yield: yield}
			}
			lentOrigin, ownedOrigin := origin(false), origin(false)
			lent := runEqSequential(t, tc.into(lentOrigin), tc.k, requests)
			owned := runEqSequential(t, tc.owned(ownedOrigin), tc.k, requests)
			st := lent.stats
			if st.Hits == 0 || st.PrefetchUsed == 0 || st.PrefetchWasted == 0 || st.PrefetchErrors == 0 || st.Backends[0].Errors == 0 ||
				st.MultiGets == 0 || (tc.name == "batch" && (st.BatchedKeys == 0 || st.Backends[0].BatchCalls == 0)) {
				t.Fatalf("the trace does not exercise what it claims to: %+v", st)
			}
			if !reflect.DeepEqual(lent.stats, owned.stats) {
				t.Errorf("Stats differ:\n lent:  %+v\n owned: %+v", lent.stats, owned.stats)
			}
			if lentOrigin.calls.Load() != ownedOrigin.calls.Load() {
				t.Errorf("the origin served %d fetches lent, %d owned", lentOrigin.calls.Load(), ownedOrigin.calls.Load())
			}
			if lent, all := lentOrigin.lent.Load(), lentOrigin.calls.Load(); lent < all*9/10 || ownedOrigin.lent.Load() != 0 {
				t.Errorf("%d of %d fetches were lent a buffer (and %d with the capability hidden): the runs do not compare the two landings",
					lent, all, ownedOrigin.lent.Load())
			}
			for i := range lent.replies {
				if lent.replies[i] != owned.replies[i] {
					t.Fatalf("request %d %v: replies differ", i, eqRequest(i, nil))
				}
			}
			if !reflect.DeepEqual(lent.events, owned.events) {
				t.Errorf("event logs differ (%d lent, %d owned)", len(lent.events), len(owned.events))
			}

			for _, run := range []struct {
				name    string
				fetcher prefetcher.Fetcher
			}{{"lent", tc.into(origin(true))}, {"owned", tc.owned(origin(true))}} {
				if st := runEqConcurrent(t, run.fetcher, tc.k, requests/4); st.Joins == 0 || st.PrefetchUsed == 0 {
					t.Errorf("%s: the concurrent pass must join flights and use prefetches: %+v", run.name, st)
				}
			}
		})
	}
}

// scribble writes n bytes of junk into the spare capacity behind dst,
// as a fetch that fails or stalls part-way through a body has.
func scribble(dst []byte, n int) {
	out := slices.Grow(dst, n)[len(dst) : len(dst)+n]
	for i := range out {
		out[i] = 0xBD
	}
}

// TestBorrowedLandingJoinerOwnsItsBytes is aliasing case (i): a request
// joins a demand flight whose owner lands a borrowed payload. Once the
// owner's GetBytes has returned and the owner has scribbled over its
// buffer, the joiner's reply and the cached copy are still the payload.
func TestBorrowedLandingJoinerOwnsItsBytes(t *testing.T) {
	const id = prefetcher.ID(5)
	entered, release := make(chan struct{}), make(chan struct{})
	origin := &byteOrigin{
		size: func(prefetcher.ID) int { return 3000 },
		// The owner's fetch waits, its buffer half written, to be joined.
		before: func(ctx context.Context, _ prefetcher.ID, dst []byte) error {
			scribble(dst, 1500)
			close(entered)
			<-release
			return nil
		},
	}
	joined := make(chan struct{})
	eng, err := prefetcher.New(origin,
		slabOption(t, bytestore.Config{CapacityBytes: 64 << 10, SegmentBytes: 8 << 10}),
		prefetcher.WithShards(1),
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithPolicy(prefetcher.NoPrefetch()),
		prefetcher.WithEventHook(func(ev prefetcher.Event) {
			if ev.Type == prefetcher.EventJoin {
				close(joined)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	want := wantPayload(id, 3000)

	ownerDone := make(chan struct{})
	var ownerBuf []byte
	var ownerErr error
	go func() {
		defer close(ownerDone)
		ownerBuf, ownerErr = eng.GetBytes(ctx, id, make([]byte, 0, 4096))
		if ownerErr == nil && bytes.Equal(ownerBuf, want) {
			for i := range ownerBuf[:cap(ownerBuf)] {
				ownerBuf[:cap(ownerBuf)][i] = 0xEE // the lender reuses its buffer at once
			}
		}
	}()
	<-entered
	joinerDone := make(chan struct{})
	var joinerBuf []byte
	var joinerErr error
	go func() {
		defer close(joinerDone)
		joinerBuf, joinerErr = eng.GetBytes(ctx, id, nil)
	}()
	<-joined
	close(release)
	<-ownerDone
	<-joinerDone
	if ownerErr != nil || joinerErr != nil {
		t.Fatalf("owner err %v, joiner err %v", ownerErr, joinerErr)
	}
	if ownerBuf[0] != 0xEE {
		t.Fatal("the owner was not served its payload")
	}
	if !bytes.Equal(joinerBuf, want) {
		t.Fatal("the joiner's reply is not the payload: it aliased the owner's buffer")
	}
	if got, err := eng.GetBytes(ctx, id, nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the cached copy is not the payload (err %v)", err)
	}
	if st := eng.Stats(); st.Joins != 1 || st.Hits != 1 || origin.calls.Load() != 1 {
		t.Fatalf("want one fetch, one join and one hit: %+v", st)
	}
	prefetcher.QuiesceAndCheck(t, eng)
}

// TestBorrowedLandingOversizedIsCloned is aliasing case (ii): a payload
// larger than a slab segment, fetched into a lent buffer, goes to the
// store's overflow map — which keeps what it is given by reference, so
// the landing must clone. The lender's buffer is overwritten and the
// item is then served intact, speculative landing included.
func TestBorrowedLandingOversizedIsCloned(t *testing.T) {
	origin := &byteOrigin{size: func(id prefetcher.ID) int { return 6000 + int(id) }}
	eng, err := prefetcher.New(origin,
		slabOption(t, bytestore.Config{CapacityBytes: 64 << 10, MaxEntries: 4, SegmentBytes: 4 << 10}),
		prefetcher.WithShards(1),
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithPolicy(prefetcher.TopK(1)),
		prefetcher.WithMaxPrefetch(1),
		prefetcher.WithWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	buf := make([]byte, 0, 16<<10)
	get := func(what string, id prefetcher.ID) {
		t.Helper()
		got, err := eng.GetBytes(ctx, id, buf[:0])
		if err != nil || !bytes.Equal(got, wantPayload(id, 6000+int(id))) {
			t.Fatalf("%s: id %d: wrong payload (err %v)", what, id, err)
		}
		for i := range got[:cap(got)] {
			got[:cap(got)][i] = 0xEE // the lender reuses its buffer
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A demand landing, then the hit on what it left in the overflow map.
	get("demand miss", 100)
	get("hit after the demand landing", 100)
	// A 16-id cycle over four entries: from the second lap on each request
	// is served from the overflow map, where a worker's landing of the
	// previous request's prefetch — read into the scratch it reuses job
	// after job — put it.
	for lap := 0; lap < 3; lap++ {
		for id := prefetcher.ID(0); id < 16; id++ {
			get(fmt.Sprintf("lap %d", lap), id)
		}
	}
	if st := eng.Stats(); st.Hits < 30 || st.PrefetchUsed < 30 {
		t.Fatalf("past the first lap requests must be served by prefetches: %+v", st)
	}
	prefetcher.QuiesceAndCheck(t, eng)
}

// TestBorrowedLandingErrorsLeaveNothing is aliasing case (iii) at the
// engine: a fetch that fails after writing into the lent buffer — an
// origin error, and a DemandTimeout expiring mid-read — returns the
// caller's buffer at its original length, caches nothing, leaves no
// record and resolves the flight with the error, for a singleton and
// for the failing key of a session. (The wire's own failures — a body
// cut short, a 5xx, a MaxBodyBytes overrun — are held to the same in
// httpfetch's TestFetchIntoErrorsRestoreDst and at the daemon.)
func TestBorrowedLandingErrorsLeaveNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		how  func(ctx context.Context) error
		want error
	}{
		{"origin error", func(context.Context) error { return errOrigin }, errOrigin},
		{"demand timeout", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bad = prefetcher.ID(9)
			var seen atomic.Int64
			origin := &byteOrigin{
				size: func(prefetcher.ID) int { return 700 },
				before: func(ctx context.Context, id prefetcher.ID, dst []byte) error {
					if id != bad {
						return nil
					}
					seen.Add(1)
					scribble(dst, 512)
					return tc.how(ctx)
				},
			}
			factory, err := bytestore.Factory(bytestore.Config{CapacityBytes: 64 << 10, SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := prefetcher.New(nil,
				prefetcher.WithBackends(fetch.Backend{Name: "origin", Fetcher: origin, Bandwidth: 1e6, DemandTimeout: 20 * time.Millisecond}),
				prefetcher.WithCacheFactory(factory),
				prefetcher.WithShards(1),
				prefetcher.WithBandwidth(1e6),
				prefetcher.WithPolicy(prefetcher.NoPrefetch()),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			dst := append(make([]byte, 0, 4096), "head"...)
			got, err := eng.GetBytes(ctx, bad, dst)
			if !errors.Is(err, tc.want) {
				t.Fatalf("GetBytes err = %v, want %v", err, tc.want)
			}
			if len(got) != 4 || string(got) != "head" || &got[0] != &dst[0] {
				t.Fatalf("GetBytes returned %d bytes on error, want the caller's 4 unchanged", len(got))
			}
			ids := []prefetcher.ID{1, bad, 2}
			buf, ranges, err := eng.GetMultiBytes(ctx, ids, nil, nil)
			var me *prefetcher.MultiError
			if !errors.As(err, &me) || len(me.Errors) != 1 || me.Errors[0].ID != bad || !errors.Is(me.Errors[0].Err, tc.want) {
				t.Fatalf("GetMultiBytes err = %v, want key %d alone failing with %v", err, bad, tc.want)
			}
			for k, id := range ids {
				if id == bad {
					continue
				}
				if got := buf[ranges[k].Off : ranges[k].Off+ranges[k].Len]; !bytes.Equal(got, wantPayload(id, 700)) {
					t.Fatalf("key %d beside the failing one was not served its payload", id)
				}
			}
			if len(buf) != 1400 {
				t.Fatalf("the session's buffer holds %d bytes, want the two served payloads and nothing of the failed one", len(buf))
			}
			// Fetched alone, in the session's batch, and in that batch's
			// per-key fallback.
			st := eng.Stats()
			if st.CacheLen != 2 || st.InFlight != 0 || seen.Load() != 3 {
				t.Fatalf("the failed key must leave nothing cached or in flight: %+v (%d fetches of it)", st, seen.Load())
			}
			prefetcher.QuiesceAndCheck(t, eng)
		})
	}
}

// TestHedgedGetBytesOwnsPayloads is aliasing case (iv): with hedging
// over two backends the attempts race on goroutines of their own, so
// none is lent the caller's buffer — each owns its payload, the loser's
// is dropped — and GetBytes is correct, under -race, from several
// callers at once.
func TestHedgedGetBytesOwnsPayloads(t *testing.T) {
	size := func(id prefetcher.ID) int { return 900 + int(id) }
	after := func(d func() time.Duration) *byteOrigin {
		return &byteOrigin{size: size, before: func(ctx context.Context, _ prefetcher.ID, _ []byte) error {
			select {
			case <-time.After(d()):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}}
	}
	// The heavy backend is every id's primary. Its first four answers take
	// 2ms, the p95 its hedges then launch at; from then on it takes 50ms,
	// and the hedge wins.
	var calls atomic.Int64
	slow := after(func() time.Duration {
		if calls.Add(1) <= 4 {
			return 2 * time.Millisecond
		}
		return 50 * time.Millisecond
	})
	fast := after(func() time.Duration { return time.Millisecond })
	factory, err := bytestore.Factory(bytestore.Config{CapacityBytes: 256 << 10, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := prefetcher.New(nil,
		prefetcher.WithBackends(
			fetch.Backend{Name: "slow", Fetcher: slow, Bandwidth: 1e9}, // rendezvous pins the primary
			fetch.Backend{Name: "fast", Fetcher: fast, Bandwidth: 1e-9},
		),
		prefetcher.WithHedging(fetch.Hedging{}),
		prefetcher.WithCacheFactory(factory),
		prefetcher.WithShards(2),
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithPolicy(prefetcher.NoPrefetch()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 2048)
			for i := 0; i < 12; i++ {
				id := prefetcher.ID(g*12 + i)
				got, err := eng.GetBytes(ctx, id, buf[:0])
				if err != nil || !bytes.Equal(got, wantPayload(id, size(id))) {
					t.Errorf("GetBytes(%d): wrong payload (err %v)", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := eng.Stats()
	var won int64
	for _, b := range st.Backends {
		won += b.HedgesWon
	}
	if won == 0 {
		t.Fatalf("no hedge won: the attempts did not race: %+v", st.Backends)
	}
	prefetcher.QuiesceAndCheck(t, eng)
}

// newMissEngine builds a slab engine over a capable origin of 16 KiB
// payloads whose every request misses: ids stride through a space far
// larger than the 8-entry cache. It is warmed past the growth of its
// maps, pools, model and arena.
func newMissEngine(tb testing.TB, opts ...prefetcher.Option) (*prefetcher.Engine, func(i int) prefetcher.ID) {
	return newMissEngineOver(tb, &byteOrigin{size: func(prefetcher.ID) int { return 16 << 10 }}, opts...)
}

// newMissEngineOver is newMissEngine over the given origin.
func newMissEngineOver(tb testing.TB, origin prefetcher.Fetcher, opts ...prefetcher.Option) (*prefetcher.Engine, func(i int) prefetcher.ID) {
	tb.Helper()
	eng, err := prefetcher.New(origin, append([]prefetcher.Option{
		slabOption(tb, bytestore.Config{CapacityBytes: 256 << 10, MaxEntries: 8, SegmentBytes: 64 << 10}),
		prefetcher.WithShards(1),
		prefetcher.WithBandwidth(1e9),
		prefetcher.WithWorkers(1),
	}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	const space = 4096
	return eng, func(i int) prefetcher.ID { return prefetcher.ID((i * 97) % space) }
}

// TestGetBytesMissAllocFree gates the demand miss through engine, fabric
// and bytestore. Lent, origin → the caller's buffer → the arena, it
// allocates nothing in steady state: no payload slice, no box, no
// staging; nor does a two-key session, whose misses go out as one lent
// demand batch. Owned (the fetcher's capability hidden), it allocates
// the origin's payload slice and its box in Item.Data, and the landing
// (putCache's Put) adds nothing. A lent payload larger than a segment
// is cloned and boxed into the store's overflow map (2). A failed fetch
// allocates the session's error report (buildMultiError's slice and
// *MultiError), unwrapped by soleKeyError.
func TestGetBytesMissAllocFree(t *testing.T) {
	if prefetcher.RaceEnabled {
		t.Skip("the miss path draws flights and scratch from sync.Pools, which the race runtime drops Puts from")
	}
	origin := func(size int) *byteOrigin {
		return &byteOrigin{size: func(prefetcher.ID) int { return size }}
	}
	for _, tc := range []struct {
		name    string
		fetcher func() prefetcher.Fetcher
		size    int
		keys    int // a session of keys, through GetMultiBytes, when > 1
		wantErr error
		ceiling float64
	}{
		{"lent", func() prefetcher.Fetcher { return origin(16 << 10) }, 16 << 10, 1, nil, 0},
		{"lent, two-key session", func() prefetcher.Fetcher { return origin(16 << 10) }, 16 << 10, 2, nil, 0},
		{"owned", func() prefetcher.Fetcher { return ownedSingle{origin(16 << 10)} }, 16 << 10, 1, nil, 2},
		{"lent, larger than a segment", func() prefetcher.Fetcher { return origin(80 << 10) }, 80 << 10, 1, nil, 2},
		{"failed", func() prefetcher.Fetcher {
			o := origin(16 << 10)
			o.fail = func(prefetcher.ID) bool { return true }
			return o
		}, 16 << 10, 1, errOrigin, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, missID := newMissEngineOver(t, tc.fetcher(), prefetcher.WithPolicy(prefetcher.NoPrefetch()))
			ctx := context.Background()
			buf := make([]byte, 0, 2*tc.size)
			ids := make([]prefetcher.ID, tc.keys)
			ranges := make([]prefetcher.ByteRange, 0, tc.keys)
			i := 0
			get := func() {
				var err error
				got := buf[:0]
				if tc.keys == 1 {
					got, err = eng.GetBytes(ctx, missID(i), buf[:0])
				} else {
					for k := range ids {
						ids[k] = missID(i + k*4096/tc.keys)
					}
					got, ranges, err = eng.GetMultiBytes(ctx, ids, buf[:0], ranges[:0])
				}
				if !errors.Is(err, tc.wantErr) || err == nil && len(got) != tc.keys*tc.size {
					t.Fatalf("GetBytes: %d bytes, err %v, want %v", len(got), err, tc.wantErr)
				}
				i++
			}
			for i < 2*4096 {
				get()
			}
			before := eng.Stats()
			if allocs := testing.AllocsPerRun(200, get); allocs > tc.ceiling {
				t.Fatalf("a GetBytes miss allocates %v times per call, ceiling %v", allocs, tc.ceiling)
			}
			if st := eng.Stats(); st.Misses-before.Misses != st.Requests-before.Requests || st.Hits != before.Hits {
				t.Fatalf("the measured requests must all miss: %+v", st)
			}
			prefetcher.QuiesceAndCheck(t, eng)
		})
	}
}

// TestGetBytesPhaseAllocFree counts every allocation of a phase of
// GetBytes hits and misses through the filtered slab store, long enough
// for the admission sketch to halve its counters at least ten times: a
// halving comes once in 10 × the entry bound counted accesses, an arm
// testing.AllocsPerRun's integer mean would round away. Half the
// requests read four hot keys, half never repeat; every request counts
// one access, so 4,000 of them over an entry bound of 8 halve the
// sketch 50 times, and the never-repeating misses are mostly declined.
func TestGetBytesPhaseAllocFree(t *testing.T) {
	if prefetcher.RaceEnabled {
		t.Skip("the miss path draws flights and scratch from sync.Pools, which the race runtime drops Puts from")
	}
	const bound, requests, size = 8, 4000, 1 << 10
	if requests < 10*10*bound {
		t.Fatal("the phase must span at least 10 halvings")
	}
	var st *bytestore.Store
	eng, err := prefetcher.New(&byteOrigin{size: func(prefetcher.ID) int { return size }},
		prefetcher.WithCacheFactory(func(int, int) prefetcher.Cache {
			st, _ = bytestore.New(bytestore.Config{CapacityBytes: 256 << 10, MaxEntries: bound, SegmentBytes: 64 << 10})
			return st
		}),
		prefetcher.WithShards(1),
		prefetcher.WithBandwidth(1e9),
		prefetcher.WithPolicy(prefetcher.NoPrefetch()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	buf := make([]byte, 0, size)
	i := 0
	get := func() {
		id := prefetcher.ID(i % 4)
		if i%2 == 1 {
			id = prefetcher.ID(100 + i)
		}
		if got, err := eng.GetBytes(ctx, id, buf[:0]); err != nil || len(got) != size {
			t.Fatalf("GetBytes(%d): %d bytes, %v", id, len(got), err)
		}
		i++
	}
	phase := func(n int) func() {
		return func() {
			for k := 0; k < n; k++ {
				get()
			}
		}
	}
	var before prefetcher.Stats
	var declined int64
	testutil.AllocsInPhase(t, 0, fmt.Sprintf("%d GetBytes hits and misses", requests), func() {
		phase(2 * requests)()
		before, declined = eng.Stats(), st.SlabStats().Declined
	}, phase(requests))
	after := eng.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits < requests/4 || misses < requests/4 {
		t.Fatalf("the phase served %d hits and %d misses; want at least %d of each", hits, misses, requests/4)
	}
	if d := st.SlabStats().Declined - declined; d < requests/4 {
		t.Fatalf("the filter declined %d of the phase's landings; want at least %d", d, requests/4)
	}
	prefetcher.QuiesceAndCheck(t, eng)
}

// TestSpeculativeLandingAllocFree gates the speculative landing: a
// request that dispatches a prefetch, the worker's fetch into its own
// scratch, the landing and the hit that uses it allocate nothing but
// the channel Quiesce waits on.
func TestSpeculativeLandingAllocFree(t *testing.T) {
	if prefetcher.RaceEnabled {
		t.Skip("the speculative path draws flights and jobs from sync.Pools, which the race runtime drops Puts from")
	}
	for _, tc := range []struct {
		name string
		k    int
	}{{"single", 1}, {"batch", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := newMissEngine(t, prefetcher.WithPolicy(prefetcher.TopK(tc.k)), prefetcher.WithMaxPrefetch(tc.k))
			ctx := context.Background()
			buf := make([]byte, 0, 32<<10)
			i := 0
			// A 64-id cycle over an 8-entry cache: each request is served by
			// the prefetch the previous one issued, and issues the next.
			step := func() {
				if got, err := eng.GetBytes(ctx, prefetcher.ID(i%64), buf[:0]); err != nil || len(got) != 16<<10 {
					t.Fatalf("GetBytes: %d bytes, err %v", len(got), err)
				}
				if err := eng.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for i < 4*64 {
				step()
			}
			before := eng.Stats()
			if allocs := testing.AllocsPerRun(200, step); allocs > 1 {
				t.Fatalf("a request with a speculative landing allocates %v times, want at most Quiesce's channel", allocs)
			}
			st := eng.Stats()
			if issued, used := st.PrefetchIssued-before.PrefetchIssued, st.PrefetchUsed-before.PrefetchUsed; issued < 200 || used < 200 {
				t.Fatalf("the measured requests must each issue and use a prefetch: issued %d, used %d", issued, used)
			}
			prefetcher.QuiesceAndCheck(t, eng)
		})
	}
}

// BenchmarkGetBytesMiss16K is BenchmarkGetMiss through the byte view on
// a slab store, 16 KiB per miss — scan-miss without the sockets. lent
// reads each payload into the caller's buffer; owned hides the
// capability, so each costs a slice, a box and a second copy.
func BenchmarkGetBytesMiss16K(b *testing.B) {
	for _, bc := range []struct {
		name string
		wrap func(*byteOrigin) prefetcher.Fetcher
	}{
		{"lent", func(o *byteOrigin) prefetcher.Fetcher { return o }},
		{"owned", func(o *byteOrigin) prefetcher.Fetcher { return ownedBatch{o} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			origin := &byteOrigin{flat: make([]byte, 16<<10)}
			eng, err := prefetcher.New(bc.wrap(origin),
				slabOption(b, bytestore.Config{CapacityBytes: 256 << 10, MaxEntries: 8, SegmentBytes: 64 << 10}),
				prefetcher.WithShards(1),
				prefetcher.WithBandwidth(1e9),
				prefetcher.WithPolicy(prefetcher.NoPrefetch()),
				prefetcher.WithWorkers(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			buf := make([]byte, 0, 32<<10)
			missID := func(i int) prefetcher.ID { return prefetcher.ID((i * 97) % 4096) }
			for i := 0; i < 2*4096; i++ {
				if _, err := eng.GetBytes(ctx, missID(i), buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(16 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.GetBytes(ctx, missID(i), buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
