// Package slab implements a pointer-free segmented value arena in the
// bigcache/fastcache mould: payloads are packed into a few large
// segments and located through an open-addressing int64 →
// packed(segment, offset, length) index in flat integer slices. The
// segments are mapped outside the Go heap (internal/offheap; under -race
// they are heap slices, so the race detector sees every access) and go
// back to the OS once their Store is unreachable. The collector neither
// scans the cached bytes nor sizes its heap goal from them.
//
// The index is also the recency order: two more flat columns link the
// live slots into a list, most recently used first, so the one table
// that says where a value is also says which value goes next. Get,
// BytesLen and Put move an entry to the head; Has peeks. There is no
// second residency table and no per-entry node to keep in step.
// SetProtected makes the order segmented LRU: the same two columns then
// carry two lists, probation and protected, and one more byte per slot
// says which list a slot is on.
//
// Every entry that leaves without the caller naming it (Delete) is
// reported through the one OnEvict callback. Put appends at a write
// cursor; when the cursor's segment is full it moves. Compact before you
// grow, and grow before you evict: if the segment with the fewest live
// bytes is at most half live, its survivors slide to the front and the
// cursor writes behind them — no entry leaves; otherwise a new segment,
// while the capacity allows one; otherwise rotation evicts whatever
// still lives in the segment the cursor entered longest ago and resets
// it. The arena grows only while every segment is more than half live,
// so it stays within about twice the peak live bytes, plus a segment,
// whatever the capacity. Rotation always makes progress, there is no
// free-list fragmentation state in which a Put can wedge, and under byte
// pressure the store is FIFO by write. The entry bound (SetMaxEntries),
// when set, bounds the count: a Put that leaves more live entries evicts
// from the tail of the list, after any rotation it caused, never the
// entry it placed. EvictOldest evicts the tail on demand.
//
// FilterAdmission puts TinyLFU's frequency filter in front of the order
// (sketch.go): a Put of a new id that would displace a resident stores
// nothing unless its key is counted more often; PutAdmitted skips it.
//
// A Store is not safe for concurrent use; in the prefetch engine each
// shard owns one behind its shard mutex.
package slab

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"repro/internal/offheap"
)

const (
	// headerBytes precedes every payload in a segment, [id int64 LE][length
	// uint32 LE], so rotation and compaction can name the entries they walk.
	headerBytes = 12

	// DefaultSegmentBytes is the segment size used when New is given a
	// non-positive one: few mappings, and one rotation evicts a modest
	// slice of the cache.
	DefaultSegmentBytes = 1 << 20

	// maxSegmentBytes bounds segBytes so a payload offset and length
	// always fit the 24-bit fields of a packed reference.
	maxSegmentBytes = 1<<24 - 1

	// minSegmentBytes keeps degenerate sizes from making every value oversized.
	minSegmentBytes = 64

	// maxSegments bounds the segment count so a segment number fits the
	// 16-bit field of a packed reference.
	maxSegments = 1 << 16

	// An empty index slot. A live reference's offset field (bits 24–47)
	// is always ≥ headerBytes, which keeps the packed word disjoint from
	// it even when its length (the low 24 bits) is 0.
	refEmpty = 0

	// minIndexSlots is the initial open-addressing table size.
	minIndexSlots = 64

	// maxIndexSlots is the largest table the int32 slot numbers of the
	// recency links are trusted with; resize refuses to pass it.
	maxIndexSlots = 1 << 30

	// none ends a recency list on either side, and is both ends of an empty one.
	none = -1

	// The recency lists: every entry of a plain LRU order is on
	// probation; segmented LRU adds the protected list.
	probation = 0
	protected = 1
)

// recency is one recency list: its most and least recently used slots
// (none when empty) and its length.
type recency struct {
	head, tail int32
	len        int
}

// noLists is an empty store's recency lists.
var noLists = [2]recency{{none, none, 0}, {none, none, 0}}

// Stats is a point-in-time snapshot of a Store's occupancy and churn.
type Stats struct {
	Entries        int   // live entries
	Segments       int   // segments allocated (≤ the capacity-derived max)
	SegmentBytes   int   // size of each segment
	LiveBytes      int64 // bytes referenced by live entries, headers included
	Rotations      int64 // segments recycled by evicting what lived there
	RotateEvicted  int64 // live entries evicted by rotation
	Compactions    int64 // segments reclaimed in place, nothing evicted
	CompactedBytes int64 // live bytes compaction moved
	Declined       int64 // Puts the admission filter turned away
}

// Store is the arena. The zero value is not usable; call New.
type Store struct {
	segBytes int
	maxSegs  int

	mem     *arena  // the segments
	fill    []int   // write offset per segment
	liveSeg []int   // live bytes per segment, headers included
	entered []int64 // per segment, the move that last put the cursor on it
	moves   int64
	cur     int // segment the write cursor is on

	// Open-addressing index: keys[i] is meaningful iff refs[i] is a
	// live packed reference. Flat int slices — no pointers for GC.
	keys []int64
	refs []uint64
	live int // live entries

	// The recency lists over the live slots, as slot numbers: on[i] is
	// the list slot i is on, prev[i] the slot used more recently than i
	// on it, next[i] the one less recently. An entry a deletion shifts
	// takes its links with it (move).
	prev, next   []int32
	on           []uint8
	lists        [2]recency
	protectedCap int // 0 = plain LRU: nothing is ever protected
	maxEntries   int // 0 = bounded by bytes alone

	liveBytes      int64
	rotations      int64
	rotateEvicted  int64
	compactions    int64
	compactedBytes int64
	declined       atomic.Int64 // read by Declined from any goroutine

	sketch  *Sketch // the admission filter; nil admits every Put
	onEvict func(id int64)
}

// New sizes a Store for roughly capacityBytes of payload split into
// segBytes segments (both clamped to sane ranges; pass 0 for the
// defaults). The capacity is a ceiling on the arena's memory, not its
// expected size: the arena grows only when compaction cannot make room,
// and rotation may evict before the ceiling when entries skew large.
func New(capacityBytes, segBytes int) *Store {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	segBytes = min(max(segBytes, minSegmentBytes), maxSegmentBytes)
	capacityBytes = max(capacityBytes, segBytes)
	maxSegs := min((capacityBytes-1)/segBytes+1, maxSegments)
	s := &Store{segBytes: segBytes, maxSegs: maxSegs, mem: &arena{}, lists: noLists}
	s.resize(minIndexSlots)
	runtime.SetFinalizer(s.mem, (*arena).free)
	return s
}

// arena owns the segments. It is an object apart from the Store, which
// an OnEvict closure often puts in a cycle, because a finalizer in a
// cycle never runs; the arena points at nothing on the heap.
type arena struct{ segs [][]byte }

func (a *arena) free() {
	for _, b := range a.segs {
		offheap.Free(b)
	}
}

// SetMaxEntries bounds the live entry count at n: from now on a Put that
// ends with more evicts the least recently used until it holds (n <= 0
// lifts the bound). n is clamped to 2²⁸, keeping the index within the
// 2³⁰ slots its int32 links can number.
func (s *Store) SetMaxEntries(n int) {
	s.maxEntries = max(0, min(n, maxIndexSlots/4))
}

// SetProtected makes the recency order segmented LRU with at most p
// entries on the protected list (p <= 0: plain LRU, the default). A new
// entry starts at the head of probation. A use — Get, BytesLen, or a Put
// that overwrites — moves a probationer to the head of the protected
// list, whose least recently used entry goes back to the head of
// probation once it holds more than p; a protected entry it moves to
// that list's head. The entry bound and EvictOldest take probation's
// least recently used entry, the protected list's only when probation
// holds nothing but the entry a Put placed. Call it on an empty Store.
func (s *Store) SetProtected(p int) { s.protectedCap = max(0, p) }

// OnEvict registers the callback that rotation, the entry bound and
// EvictOldest invoke, synchronously from inside Put or EvictOldest, once
// per live entry they displace. It must not call back into the Store.
func (s *Store) OnEvict(fn func(id int64)) { s.onEvict = fn }

// Len returns the number of live entries.
func (s *Store) Len() int { return s.live }

// MaxSegments is the segment count the capacity allows: with
// Stats.SegmentBytes, the ceiling on the arena's memory.
func (s *Store) MaxSegments() int { return s.maxSegs }

// Fits reports whether an n-byte payload, with its header, fits a segment.
func (s *Store) Fits(n int) bool { return n >= 0 && headerBytes+n <= s.segBytes }

// Stats returns an occupancy/churn snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:        s.live,
		Segments:       len(s.mem.segs),
		SegmentBytes:   s.segBytes,
		LiveBytes:      s.liveBytes,
		Rotations:      s.rotations,
		RotateEvicted:  s.rotateEvicted,
		Compactions:    s.compactions,
		CompactedBytes: s.compactedBytes,
		Declined:       s.declined.Load(),
	}
}

// pack encodes (segment, payload offset, payload length) into one
// word: seg<<48 | off<<24 | len. The offset field carries the sentinel
// invariant: off ≥ headerBytes makes every live word ≥ headerBytes<<24,
// disjoint from refEmpty even when len is 0. A layout
// change that moves or shrinks the offset field must re-derive this.
func pack(seg, off, n int) uint64 { return uint64(seg)<<48 | uint64(off)<<24 | uint64(n) }

func unpack(ref uint64) (seg, off, n int) {
	return int(ref >> 48), int(ref >> 24 & 0xFFFFFF), int(ref & 0xFFFFFF)
}

// slot hashes an id to its starting probe slot (Fibonacci hashing with
// a high-bit fold, like the engine's shard selector).
func (s *Store) slot(id int64) uint64 {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return (h ^ h>>32) & uint64(len(s.refs)-1)
}

// findSlot locates id's index slot. Growth keeps the live entries under
// half the table, so an empty slot always terminates the probe.
func (s *Store) findSlot(id int64) (int, bool) {
	mask := uint64(len(s.refs) - 1)
	for i := s.slot(id); s.refs[i] != refEmpty; i = (i + 1) & mask {
		if s.keys[i] == id {
			return int(i), true
		}
	}
	return 0, false
}

// link puts live slot i at the head of list l.
func (s *Store) link(i int32, l uint8) {
	ls := &s.lists[l]
	s.on[i], s.prev[i], s.next[i] = l, none, ls.head
	if ls.head != none {
		s.prev[ls.head] = i
	} else {
		ls.tail = i
	}
	ls.head = i
	ls.len++
}

// unlink takes slot i off its list.
func (s *Store) unlink(i int32) {
	ls := &s.lists[s.on[i]]
	p, n := s.prev[i], s.next[i]
	if p != none {
		s.next[p] = n
	} else {
		ls.head = n
	}
	if n != none {
		s.prev[n] = p
	} else {
		ls.tail = p
	}
	ls.len--
}

// touch marks slot i used (see SetProtected): it moves to the head of
// its list, or of the protected list under segmented LRU, demoting that
// list's least recently used entry if it overflows.
func (s *Store) touch(i int) {
	l := uint8(probation)
	if s.protectedCap > 0 {
		l = protected
	}
	if s.lists[l].head != int32(i) {
		s.unlink(int32(i))
		s.link(int32(i), l)
		if s.lists[protected].len > s.protectedCap {
			d := s.lists[protected].tail
			s.unlink(d)
			s.link(d, probation)
		}
	}
}

// insert adds a reference for an id that is NOT currently indexed
// (callers drop any existing entry first). The index doubles once live
// entries would fill half of it, which keeps probe runs short on a hit.
func (s *Store) insert(id int64, ref uint64) {
	if (s.live+1)*2 >= len(s.refs) {
		s.resize(2 * len(s.refs))
	}
	s.place(id, ref, probation)
	s.live++
}

// place puts id in the first empty slot of its probe run and links it
// in at the head of list l.
func (s *Store) place(id int64, ref uint64, l uint8) {
	i, mask := s.slot(id), uint64(len(s.refs)-1)
	for s.refs[i] != refEmpty {
		i = (i + 1) & mask
	}
	s.keys[i], s.refs[i] = id, ref
	s.link(int32(i), l)
}

// resize rebuilds the index at size slots by walking each old recency
// list from its tail and linking each entry in at the head of the same
// new list: the live slots, left on the lists and in the order they had.
// Deletion leaves no tombstone (dropSlot), so the index is rebuilt only
// to grow.
func (s *Store) resize(size int) {
	if size > maxIndexSlots {
		// Unreachable under SetMaxEntries; without, 2²⁹ live entries away.
		panic("slab: index would outgrow its int32 slot numbers")
	}
	oldKeys, oldRefs, oldPrev, old := s.keys, s.refs, s.prev, s.lists
	s.keys = make([]int64, size)
	s.refs = make([]uint64, size)
	s.prev = make([]int32, size)
	s.next = make([]int32, size)
	s.on = make([]uint8, size)
	s.lists = noLists
	for l := range old {
		for j := old[l].tail; j != none; j = oldPrev[j] {
			s.place(oldKeys[j], oldRefs[j], uint8(l))
		}
	}
}

// dropSlot empties and unlinks slot i, debiting its segment's bytes.
// Each later entry of the probe run whose home slot does not lie between
// the hole and itself moves back into the hole, which moves on to where
// it was: no probe ever has to step over a deleted slot.
func (s *Store) dropSlot(i int) {
	seg, _, n := unpack(s.refs[i])
	s.unlink(int32(i))
	s.live--
	s.liveSeg[seg] -= headerBytes + n
	s.liveBytes -= int64(headerBytes + n)
	mask := len(s.refs) - 1
	for j := (i + 1) & mask; s.refs[j] != refEmpty; j = (j + 1) & mask {
		if home := int(s.slot(s.keys[j])); (j-home)&mask >= (j-i)&mask {
			s.move(j, i)
			i = j
		}
	}
	s.refs[i] = refEmpty
}

// move puts live slot j's entry into empty slot i, links included.
func (s *Store) move(j, i int) {
	p, n, ls := s.prev[j], s.next[j], &s.lists[s.on[j]]
	s.keys[i], s.refs[i], s.prev[i], s.next[i], s.on[i] = s.keys[j], s.refs[j], p, n, s.on[j]
	if p != none {
		s.next[p] = int32(i)
	} else {
		ls.head = int32(i)
	}
	if n != none {
		s.prev[n] = int32(i)
	} else {
		ls.tail = int32(i)
	}
}

// evict drops live slot i and reports its id.
func (s *Store) evict(i int) {
	id := s.keys[i]
	s.dropSlot(i)
	if s.onEvict != nil {
		s.onEvict(id)
	}
}

// Delete removes id if present. No eviction callback fires — the caller
// named the entry, so it already knows.
func (s *Store) Delete(id int64) bool {
	i, ok := s.findSlot(id)
	if !ok {
		return false
	}
	s.dropSlot(i)
	return true
}

// EvictOldest evicts the least recently used entry, if any, via OnEvict:
// probation's, or the protected list's while probation is empty.
func (s *Store) EvictOldest() {
	for _, l := range s.lists {
		if l.tail != none {
			s.evict(int(l.tail))
			return
		}
	}
}

// Put stores a copy of v under id, overwriting any previous value, and
// makes id the most recently used — an overwrite is a use (see
// SetProtected). It returns false — storing nothing — when the payload
// can never fit a segment (see Fits), or when the admission filter turns
// a new id away (see FilterAdmission). Rotation and then the entry
// bound may evict other entries; never id itself (its stale copy leaves
// the index before space is claimed, and the bound passes over it).
func (s *Store) Put(id int64, v []byte) bool { return s.put(id, v, true) }

// PutAdmitted is Put past the admission filter.
func (s *Store) PutAdmitted(id int64, v []byte) bool { return s.put(id, v, false) }

func (s *Store) put(id int64, v []byte, filter bool) bool {
	need := headerBytes + len(v)
	if len(v) > maxSegmentBytes || need > s.segBytes {
		return false
	}
	i, hit := s.findSlot(id)
	if hit {
		s.dropSlot(i)
	} else if filter && s.sketch != nil && s.Displaces(len(v)) && !s.admits(id) {
		s.declined.Add(1)
		return false
	}
	s.ensure(need)
	seg, off := s.cur, s.fill[s.cur]
	buf := s.mem.segs[seg]
	binary.LittleEndian.PutUint64(buf[off:], uint64(id))
	binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(v)))
	copy(buf[off+headerBytes:], v)
	s.fill[seg] = off + need
	s.insert(id, pack(seg, off+headerBytes, len(v)))
	s.liveSeg[seg] += need
	s.liveBytes += int64(need)
	for s.maxEntries > 0 && s.live > s.maxEntries {
		j := s.lists[probation].tail
		if s.keys[j] == id { // probation holds nothing else
			j = s.lists[protected].tail
		}
		s.evict(int(j))
	}
	if hit && s.protectedCap > 0 { // under plain LRU id is already the head
		i, _ = s.findSlot(id)
		s.touch(i)
	}
	return true
}

// Displaces reports whether a Put of an n-byte payload under an id not
// resident would evict a resident: the entry bound is full, or the write
// cursor would rotate a segment where an entry still lives.
func (s *Store) Displaces(n int) bool {
	if s.maxEntries > 0 && s.live >= s.maxEntries {
		return true
	}
	how, seg := s.pick(headerBytes + n)
	return how == rotateSeg && s.liveSeg[seg] > 0
}

// What ensure does to make room, as pick chooses it.
const (
	keepSeg = iota
	compactSeg
	growSeg
	rotateSeg
)

// pick chooses where need bytes go: the current segment while it has
// room, else the one with the fewest live bytes, compacted if at most
// half of what was written there is live and need fits behind the
// survivors (at most one byte moved per byte reclaimed), else a fresh
// one under the ceiling, else the one the cursor entered longest ago,
// rotated.
func (s *Store) pick(need int) (how, seg int) {
	if len(s.mem.segs) > 0 && s.fill[s.cur]+need <= s.segBytes {
		return keepSeg, s.cur
	}
	old := 0 // seg: fewest live bytes; old: entered longest ago
	for i, e := range s.entered {
		if s.liveSeg[i] < s.liveSeg[seg] {
			seg = i
		}
		if e < s.entered[old] {
			old = i
		}
	}
	switch {
	case len(s.mem.segs) > 0 && 2*s.liveSeg[seg] <= s.fill[seg] && s.liveSeg[seg]+need <= s.segBytes:
		return compactSeg, seg
	case len(s.mem.segs) < s.maxSegs:
		return growSeg, len(s.mem.segs)
	}
	return rotateSeg, old
}

// ensure positions the write cursor on a segment with room for need
// bytes, the one pick chooses.
func (s *Store) ensure(need int) {
	how, seg := s.pick(need)
	switch how {
	case keepSeg:
		return
	case compactSeg:
		s.compact(seg)
	case growSeg:
		s.mem.segs = append(s.mem.segs, offheap.Alloc(s.segBytes))
		s.fill = append(s.fill, 0)
		s.liveSeg = append(s.liveSeg, 0)
		s.entered = append(s.entered, 0)
	case rotateSeg:
		s.rotate(seg)
	}
	s.cur = seg
	s.moves++
	s.entered[seg] = s.moves
}

// walk calls fn with the index slot and payload offset and length of
// every record in segment seg that is still live, in write order,
// stopping at the last of them (with nothing live it reads no header).
// A record an id left behind when overwritten or deleted is not live:
// its packed reference no longer matches the id's slot.
func (s *Store) walk(seg int, fn func(i, off, n int)) {
	buf := s.mem.segs[seg]
	for off, left := 0, s.liveSeg[seg]; left > 0 && off < s.fill[seg]; {
		id := int64(binary.LittleEndian.Uint64(buf[off:]))
		n := int(binary.LittleEndian.Uint32(buf[off+8:]))
		if i, ok := s.findSlot(id); ok && s.refs[i] == pack(seg, off+headerBytes, n) {
			left -= headerBytes + n
			fn(i, off, n)
		}
		off += headerBytes + n
	}
}

// rotate evicts every entry still live in segment seg, reporting each
// through OnEvict, and resets the segment for reuse.
func (s *Store) rotate(seg int) {
	s.rotations++
	s.walk(seg, func(i, _, _ int) {
		s.rotateEvicted++
		s.evict(i)
	})
	s.fill[seg] = 0
}

// compact slides every record still live in segment seg to the front,
// repointing its index slot, and leaves the fill behind the last of them.
// Slot numbers and recency links do not move; nothing is evicted.
func (s *Store) compact(seg int) {
	s.compactions++
	w := 0
	s.walk(seg, func(i, off, n int) {
		if off != w {
			copy(s.mem.segs[seg][w:], s.mem.segs[seg][off:off+headerBytes+n])
			s.refs[i] = pack(seg, w+headerBytes, n)
			s.compactedBytes += int64(headerBytes + n)
		}
		w += headerBytes + n
	})
	s.fill[seg] = w
}

// Get appends id's payload to dst, marks id most recently used and
// reports whether it was present. dst is the caller's buffer (typically
// pooled), so a hit allocates nothing once dst has grown to working size.
func (s *Store) Get(id int64, dst []byte) ([]byte, bool) {
	i, ok := s.findSlot(id)
	if !ok {
		return dst, false
	}
	s.touch(i)
	seg, off, n := unpack(s.refs[i])
	dst = append(dst, s.mem.segs[seg][off:off+n]...)
	runtime.KeepAlive(s) // the segment is unmapped once s is collected
	return dst, true
}

// BytesLen returns the stored payload length for id, marking it most
// recently used like the Get it stands in for.
func (s *Store) BytesLen(id int64) (int, bool) {
	i, ok := s.findSlot(id)
	if !ok {
		return 0, false
	}
	s.touch(i)
	_, _, n := unpack(s.refs[i])
	return n, true
}

// Has reports whether id is present without touching its recency.
func (s *Store) Has(id int64) bool {
	_, ok := s.findSlot(id)
	return ok
}
