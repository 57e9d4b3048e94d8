package bytestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/slab"
	"repro/prefetcher"
)

// reference is the composition the Store was first built as, kept here
// as the yardstick for whatever the Store is built on now: residency and
// LRU recency in a cache.Store, payload bytes in a slab with no entry
// bound of its own, a boxed overflow map, and the two eviction callbacks
// that keep the layers in step — policy victims leave the slab, rotation
// victims leave the policy layer, and each is reported once.
type reference struct {
	lru           *cache.LRU
	store         *cache.Store
	slab          *slab.Store
	overflow      map[prefetcher.ID]boxed
	overflowBytes int
	capacityBytes int
	onEvict       func(prefetcher.ID)
}

// boxed is one entry of the reference's overflow map, as the Store
// keeps it: the value and the bytes it charges against CapacityBytes.
type boxed struct {
	val  any
	size int
}

func newReference(cfg Config) *reference {
	r := &reference{
		lru:           cache.NewLRU(),
		slab:          slab.New(cfg.CapacityBytes, cfg.SegmentBytes),
		overflow:      make(map[prefetcher.ID]boxed),
		capacityBytes: cfg.CapacityBytes,
	}
	r.store = cache.NewStore(cfg.MaxEntries, r.lru)
	r.store.OnEvict(r.policyEvicted)
	r.slab.OnEvict(func(id int64) {
		r.store.Remove(cache.ID(id))
		r.onEvict(prefetcher.ID(id))
	})
	return r
}

// policyEvicted is the count-bound callback: the victim has left the
// policy layer; drop its payload wherever it lives, then report.
func (r *reference) policyEvicted(id cache.ID) {
	r.slab.Delete(int64(id))
	r.dropOverflow(prefetcher.ID(id))
	r.onEvict(prefetcher.ID(id))
}

func (r *reference) dropOverflow(id prefetcher.ID) {
	if e, ok := r.overflow[id]; ok {
		r.overflowBytes -= e.size
		delete(r.overflow, id)
	}
}

func (r *reference) Get(id prefetcher.ID) (any, bool) {
	if !r.store.Access(cache.ID(id)) {
		return nil, false
	}
	if e, ok := r.overflow[id]; ok {
		return e.val, true
	}
	b, ok := r.slab.Get(int64(id), nil)
	return b, ok
}

func (r *reference) GetBytes(id prefetcher.ID, dst []byte) ([]byte, bool) {
	out, ok := r.slab.Get(int64(id), dst)
	if !ok {
		return dst, false
	}
	r.store.Access(cache.ID(id))
	return out, true
}

func (r *reference) BytesLen(id prefetcher.ID) (int, bool) {
	n, ok := r.slab.BytesLen(int64(id))
	if !ok {
		return 0, false
	}
	r.store.Access(cache.ID(id))
	return n, true
}

func (r *reference) Put(id prefetcher.ID, value any) {
	b, isBytes := value.([]byte)
	if isBytes && r.slab.Fits(len(b)) {
		r.PutBytes(id, b)
		return
	}
	size := 0
	if isBytes {
		size = len(b)
	}
	r.store.Remove(cache.ID(id))
	r.slab.Delete(int64(id))
	r.dropOverflow(id)
	for r.overflowBytes+size > r.capacityBytes && r.store.Len() > 0 {
		// One forced policy eviction: the least recently used resident.
		victim := r.lru.Victim()
		r.store.Remove(victim)
		r.policyEvicted(victim)
	}
	r.overflow[id] = boxed{val: value, size: size}
	r.overflowBytes += size
	r.store.Admit(cache.ID(id))
}

func (r *reference) PutBytes(id prefetcher.ID, b []byte) {
	if !r.slab.Fits(len(b)) {
		r.Put(id, bytes.Clone(b))
		return
	}
	r.dropOverflow(id)
	r.slab.Put(int64(id), b)
	r.store.Admit(cache.ID(id))
}

func (r *reference) Contains(id prefetcher.ID) bool { return r.store.Contains(cache.ID(id)) }
func (r *reference) Len() int                       { return r.store.Len() }

// diffRegime is one shape of traffic for the differential run. The
// regimes split on one line: wherever the arena wraps, every value fits
// a segment, and wherever values are boxed (oversized []byte, non-[]byte
// Data), the arena never wraps — the test checks that premise at the end
// of each run. Inside a regime the Store must match the reference
// exactly; across that line it may not be compared, because how a boxed
// value is booked against the arena is the Store's own business.
type diffRegime struct {
	name           string
	cfg            Config
	ids            int  // id space
	maxFit         int  // largest arena-fitting payload
	boxed          bool // oversized and non-[]byte Puts in the mix
	mostlyBoxed    bool // and they are most of the Puts: drives the overflow budget loop
	wantRotation   bool
	wantCompaction bool
}

var diffRegimes = []diffRegime{
	// The entry bound does all the evicting; every payload shape and
	// every shape change is in the mix.
	{name: "entry-bound", cfg: Config{CapacityBytes: 32 << 20, MaxEntries: 48, SegmentBytes: 1 << 10},
		ids: 160, maxFit: 200, boxed: true},
	// Rotation does nearly all of it: the arena holds far fewer values
	// than the entry bound admits.
	{name: "rotating", cfg: Config{CapacityBytes: 4 << 10, MaxEntries: 1 << 16, SegmentBytes: 512},
		ids: 160, maxFit: 120, wantRotation: true},
	// Both streams at once: a Put regularly evicts through rotation and
	// then through the bound, in that order. The arena is small enough
	// (four segments for up to 40 live values) that compaction, which
	// runs here too, cannot reclaim what rotation takes.
	{name: "both-streams", cfg: Config{CapacityBytes: 2 << 10, MaxEntries: 40, SegmentBytes: 512},
		ids: 160, maxFit: 60, wantRotation: true},
	// Boxed payloads past the byte budget: the overflow loop evicts the
	// least recently used residents, boxed or not, before the entry bound
	// is consulted.
	{name: "overflow-budget", cfg: Config{CapacityBytes: 2 << 20, MaxEntries: 1 << 12, SegmentBytes: 1 << 10},
		ids: 2000, maxFit: 40, boxed: true, mostlyBoxed: true},
	// The entry bound binds on an arena at least 8× the live bytes: the
	// write cursor reclaims dead space by compacting in place, and the
	// arena never wraps.
	{name: "compacting", cfg: Config{CapacityBytes: 64 << 10, MaxEntries: 32, SegmentBytes: 512},
		ids: 160, maxFit: 60, wantCompaction: true},
}

// boxedStrings are the non-[]byte payloads the mix draws from.
var boxedStrings = []string{"", "a", "not bytes", "still not bytes"}

// TestStoreMatchesReferenceComposition drives a Store and the reference
// composition with the same seeded stream of PutBytes, Put (fitting,
// oversized, non-[]byte), Get, GetBytes, BytesLen and Contains —
// overwrites and shape changes included — and demands the same answer
// from every call, the same victims in the same order from every call,
// the same Len, and a Footprint inside its own ceilings, op by op.
func TestStoreMatchesReferenceComposition(t *testing.T) {
	// Five seeds a regime: seeds 0–19 take the first four regimes in
	// turn, 20–24 the fifth.
	const seeds, ops = 25, 200_000
	for seed := 0; seed < seeds; seed++ {
		rg := diffRegimes[seed%4]
		if seed >= 20 {
			rg = diffRegimes[4]
		}
		t.Run(fmt.Sprintf("seed=%d/%s", seed, rg.name), func(t *testing.T) {
			runDifferential(t, rg, int64(seed), ops)
		})
	}
}

func runDifferential(t *testing.T, rg diffRegime, seed int64, ops int) {
	st, err := New(rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(rg.cfg)
	var gotEv, wantEv []prefetcher.ID
	st.OnEvict(func(id prefetcher.ID) { gotEv = append(gotEv, id) })
	ref.onEvict = func(id prefetcher.ID) { wantEv = append(wantEv, id) }

	rnd := rand.New(rand.NewSource(seed))
	model := map[prefetcher.ID]any{} // last value written, for payload checks
	// Oversized payloads are windows onto one buffer: Put keeps them by
	// reference, and 200k fresh ones would only exercise the allocator.
	big := val(7, 4<<10)
	var dst []byte
	evicted := 0

	for op := 0; op < ops; op++ {
		id := prefetcher.ID(rnd.Intn(rg.ids))
		var call string // with id, names the op in a failure
		switch k := rnd.Intn(100); {
		case k < 40: // a write
			var v any
			oversized := 10 // percent of writes
			if rg.mostlyBoxed {
				oversized = 80
			}
			switch shape := rnd.Intn(100); {
			case rg.boxed && shape < oversized:
				n := rg.cfg.SegmentBytes + 1 + rnd.Intn(len(big)-rg.cfg.SegmentBytes)
				v = big[:n:n]
			case rg.boxed && shape < oversized+10:
				v = boxedStrings[rnd.Intn(len(boxedStrings))]
			default:
				v = val(id, rnd.Intn(rg.maxFit+1))
			}
			if b, ok := v.([]byte); ok && rnd.Intn(2) == 0 {
				call = "PutBytes"
				st.PutBytes(id, b)
				ref.PutBytes(id, b)
			} else {
				call = "Put"
				st.Put(id, v)
				ref.Put(id, v)
			}
			model[id] = v
		case k < 60:
			call = "Get"
			got, ok := st.Get(id)
			want, wok := ref.Get(id)
			if ok != wok || !sameValue(got, want) || ok && !sameValue(got, model[id]) {
				t.Fatalf("op %d %s(%d) = %v,%t; reference %v,%t; last written %v", op, call, id, got, ok, want, wok, model[id])
			}
		case k < 80:
			call = "GetBytes"
			got, ok := st.GetBytes(id, dst[:0])
			want, wok := ref.GetBytes(id, nil)
			if ok != wok || !bytes.Equal(got, want) || ok && !sameValue(got, model[id]) {
				t.Fatalf("op %d %s(%d) = %d B,%t; reference %d B,%t", op, call, id, len(got), ok, len(want), wok)
			}
			dst = got
		case k < 90:
			call = "BytesLen"
			got, ok := st.BytesLen(id)
			want, wok := ref.BytesLen(id)
			if ok != wok || got != want {
				t.Fatalf("op %d %s(%d) = %d,%t; reference %d,%t", op, call, id, got, ok, want, wok)
			}
		default:
			call = "Contains"
			if got, want := st.Contains(id), ref.Contains(id); got != want {
				t.Fatalf("op %d %s(%d) = %t; reference %t", op, call, id, got, want)
			}
		}

		if len(gotEv) != len(wantEv) {
			t.Fatalf("op %d %s(%d) evicted %v; reference %v", op, call, id, gotEv, wantEv)
		}
		for i, victim := range gotEv {
			if victim != wantEv[i] {
				t.Fatalf("op %d %s(%d) evicted %v; reference %v", op, call, id, gotEv, wantEv)
			}
			delete(model, victim)
		}
		evicted += len(gotEv)
		gotEv, wantEv = gotEv[:0], wantEv[:0]
		if st.Len() != ref.Len() {
			t.Fatalf("op %d %s(%d): Len = %d; reference %d", op, call, id, st.Len(), ref.Len())
		}
		if a, amax, o, omax := st.Footprint(); a > amax || o > omax || o != int64(ref.overflowBytes) {
			t.Fatalf("op %d %s(%d): Footprint = %d/%d arena, %d/%d overflow; reference holds %d overflow bytes",
				op, call, id, a, amax, o, omax, ref.overflowBytes)
		}
	}

	for id := prefetcher.ID(0); id < prefetcher.ID(rg.ids); id++ {
		_, live := model[id]
		if st.Contains(id) != live || ref.Contains(id) != live {
			t.Fatalf("at the end id %d: Store %t, reference %t, every victim reported says %t",
				id, st.Contains(id), ref.Contains(id), live)
		}
	}
	if evicted == 0 {
		t.Fatal("the run evicted nothing")
	}
	if ss := st.SlabStats(); (ss.Rotations > 0) != rg.wantRotation || rg.wantCompaction && ss.Compactions == 0 {
		t.Fatalf("the regime's premise does not hold: %d rotations, %d compactions; want rotation %t, compaction %t",
			ss.Rotations, ss.Compactions, rg.wantRotation, rg.wantCompaction)
	}
	if rg.mostlyBoxed && int64(ref.overflowBytes) < int64(rg.cfg.CapacityBytes)/2 {
		t.Fatalf("the overflow budget was never near: %d of %d bytes", ref.overflowBytes, rg.cfg.CapacityBytes)
	}
}

// sameValue compares two payloads as the stores hand them out: []byte by
// content (an empty one may come back nil), anything else by ==.
func sameValue(a, b any) bool {
	ab, aok := a.([]byte)
	bb, bok := b.([]byte)
	if aok || bok {
		return aok == bok && bytes.Equal(ab, bb)
	}
	return a == b
}
