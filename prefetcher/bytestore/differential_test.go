package bytestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/slab"
	"repro/prefetcher"
)

// reference is the composition the Store was first built as, kept here
// as the yardstick for whatever the Store is built on now: residency and
// recency in a cache.Store under a segmented-LRU policy, payload bytes in
// a slab with no entry bound of its own, a boxed overflow map, and the
// two eviction callbacks that keep the layers in step — policy victims
// leave the slab, rotation victims leave the policy layer, and each is
// reported once — and, in front of it all, the admission filter as
// store.New runs it: a sketch counts every Get, and every GetBytes and
// BytesLen of an id not boxed; a demand landing of a new id that the
// entry bound or a rotation would make room for is declined if the
// sketch counts it at most once, and otherwise enters the policy's window.
type reference struct {
	policy        *tlfu
	store         *cache.Store
	slab          *slab.Store
	overflow      map[prefetcher.ID]boxed
	overflowBytes int
	capacityBytes int
	onEvict       func(prefetcher.ID)
	sketch        *slab.Sketch
	declined      int64
}

// boxed is one entry of the reference's overflow map, as the Store
// keeps it: the value and the bytes it charges against CapacityBytes.
type boxed struct {
	val  any
	size int
}

// tlfu is W-TinyLFU's order as a cache.Policy, written with plain
// slices, least recently used first (prefetcher's listModel, as a
// policy, with a window): an LRU window of at most w (lists[2]), then
// segmented LRU. A demand landing (demand set before its Inserted)
// enters the window, whose least recent entry then moves to the most
// recent end of probation (lists[0]) once the window holds more than w;
// any other new entry starts on probation. A use refreshes a window
// entry there, and moves a probationer to the most recent end of the
// protected list (lists[1]), whose least recent entry goes back to the
// most recent end of probation once the list holds more than p; a
// protected entry it refreshes there. With p == 0 nothing is protected.
// The victim is main's first — probation's least recent entry, or
// protected's while probation is empty — then the window's; but when a
// demand landing is about to push the window's least recent entry out,
// that entry and main's first compete on the sketch, and the loser is
// the victim: the window's entry, unless it is counted more often.
type tlfu struct {
	p, w   int
	lists  [3][]cache.ID
	sketch *slab.Sketch
	demand bool
}

func (q *tlfu) Name() string { return fmt.Sprintf("tlfu(p=%d, w=%d)", q.p, q.w) }

func (q *tlfu) Inserted(id cache.ID) {
	if !q.demand {
		q.lists[0] = append(q.lists[0], id)
		return
	}
	q.lists[2] = append(q.lists[2], id)
	if len(q.lists[2]) > q.w {
		q.lists[0] = append(q.lists[0], q.lists[2][0])
		q.lists[2] = q.lists[2][1:]
	}
}

func (q *tlfu) Accessed(id cache.ID) {
	switch l := q.take(id); {
	case l == 2:
		q.lists[2] = append(q.lists[2], id)
		return
	case l == 0 && q.p == 0:
		q.lists[0] = append(q.lists[0], id)
		return
	}
	q.lists[1] = append(q.lists[1], id)
	if len(q.lists[1]) > q.p {
		q.lists[0] = append(q.lists[0], q.lists[1][0])
		q.lists[1] = q.lists[1][1:]
	}
}

// first is main's first victim, if main holds any.
func (q *tlfu) first() (cache.ID, bool) {
	for _, l := range q.lists[:2] {
		if len(l) > 0 {
			return l[0], true
		}
	}
	return 0, false
}

func (q *tlfu) Victim() cache.ID {
	v, ok := q.first()
	if q.demand && len(q.lists[2]) == q.w {
		if c := q.lists[2][0]; !ok || q.sketch.Estimate(int64(c)) <= q.sketch.Estimate(int64(v)) {
			return c
		}
	}
	if !ok {
		return q.lists[2][0]
	}
	return v
}

func (q *tlfu) Removed(id cache.ID) { q.take(id) }

// take removes id from whichever list holds it and reports which.
func (q *tlfu) take(id cache.ID) int {
	for l := range q.lists {
		if i := slices.Index(q.lists[l], id); i >= 0 {
			q.lists[l] = slices.Delete(q.lists[l], i, i+1)
			return l
		}
	}
	panic(fmt.Sprintf("id %d is on no list", id))
}

// newReference builds the composition for cfg with a window of w
// entries and at most p protected.
func newReference(cfg Config, p, w int) *reference {
	r := &reference{
		policy:        &tlfu{p: p, w: w},
		slab:          slab.New(cfg.CapacityBytes, cfg.SegmentBytes),
		overflow:      make(map[prefetcher.ID]boxed),
		capacityBytes: cfg.CapacityBytes,
		sketch:        slab.NewSketch(cfg.MaxEntries),
	}
	r.policy.sketch = r.sketch
	r.store = cache.NewStore(cfg.MaxEntries, r.policy)
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

// count counts a demand access of id in the sketch.
func (r *reference) count(id prefetcher.ID) { r.sketch.Add(int64(id)) }

// boxedID reports whether id's value lives in the overflow map.
func (r *reference) boxedID(id prefetcher.ID) bool {
	_, ok := r.overflow[id]
	return ok
}

func (r *reference) Get(id prefetcher.ID) (any, bool) {
	r.count(id)
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
	if !r.boxedID(id) {
		r.count(id)
	}
	out, ok := r.slab.Get(int64(id), dst)
	if !ok {
		return dst, false
	}
	r.store.Access(cache.ID(id))
	return out, true
}

func (r *reference) BytesLen(id prefetcher.ID) (int, bool) {
	if !r.boxedID(id) {
		r.count(id)
	}
	n, ok := r.slab.BytesLen(int64(id))
	if !ok {
		return 0, false
	}
	r.store.Access(cache.ID(id))
	return n, true
}

func (r *reference) Put(id prefetcher.ID, value any) bool {
	b, isBytes := value.([]byte)
	if isBytes && r.slab.Fits(len(b)) {
		return r.PutBytes(id, b, false)
	}
	size := 0
	if isBytes {
		size = len(b)
	}
	r.policy.demand = false // boxed values pass the filter and the window
	resident := r.store.Remove(cache.ID(id))
	r.slab.Delete(int64(id))
	r.dropOverflow(id)
	for r.overflowBytes+size > r.capacityBytes && r.store.Len() > 0 {
		// One forced policy eviction: the policy's victim.
		victim := r.policy.Victim()
		r.store.Remove(victim)
		r.policyEvicted(victim)
	}
	r.overflow[id] = boxed{val: value, size: size}
	r.overflowBytes += size
	r.store.Admit(cache.ID(id))
	if resident { // an overwrite is a use, whatever the payload's shape
		r.store.Access(cache.ID(id))
	}
	return true
}

// PutBytes is the Store's LandBytes.
func (r *reference) PutBytes(id prefetcher.ID, b []byte, speculative bool) bool {
	if !r.slab.Fits(len(b)) {
		return r.Put(id, bytes.Clone(b))
	}
	r.dropOverflow(id)
	r.policy.demand = !speculative && !r.store.Contains(cache.ID(id))
	if r.policy.demand && (r.store.Len() >= r.store.Capacity() || r.slab.Full()) {
		if r.sketch.Estimate(int64(id)) <= 1 {
			r.declined++
			return false
		}
	}
	r.slab.Put(int64(id), b)
	r.store.Admit(cache.ID(id))
	return true
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
	// Boxed payloads past the byte budget: the overflow loop evicts
	// residents, boxed or not, probation's tail first, before the entry
	// bound is consulted.
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
// oversized, non-[]byte), speculative LandBytes, Get, GetBytes, BytesLen
// and Contains — overwrites and shape changes included — and demands the
// same answer from every call, whether each landing was stored, the same
// victims in the same order from every call, the same Len, and a
// Footprint inside its own ceilings, op by op; and at the end as many
// landings declined on each side, some wherever the store fills.
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
	w := min(2, max(1, rg.cfg.MaxEntries/2))
	ref := newReference(rg.cfg, (rg.cfg.MaxEntries-w)/2, w)
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
			var stored, want bool
			switch b, ok := v.([]byte); {
			case ok && rnd.Intn(4) == 0:
				call = "LandBytes(speculative)"
				stored, want = st.LandBytes(id, b, true), ref.PutBytes(id, b, true)
			case ok && rnd.Intn(2) == 0:
				call = "LandBytes"
				stored, want = st.LandBytes(id, b, false), ref.PutBytes(id, b, false)
			default:
				call = "Land"
				stored, want = st.Land(id, v, false), ref.Put(id, v)
			}
			if stored != want {
				t.Fatalf("op %d %s(%d) stored %t; reference %t", op, call, id, stored, want)
			}
			if !stored {
				break
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
	// Only where the entry bound or the arena fills can a landing displace.
	full := rg.cfg.MaxEntries < rg.ids || rg.wantRotation
	if got := st.SlabStats().Declined; got != ref.declined || full != (got > 0) {
		t.Fatalf("the Store declined %d landings, the reference %d; want the same, and some iff the store fills (%t)", got, ref.declined, full)
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
