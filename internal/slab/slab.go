// Package slab implements a pointer-free segmented value arena in the
// bigcache/fastcache mould: payloads are packed into a small number of
// large []byte segments and located through an open-addressing
// int64 → packed(segment, offset, length) index held in flat integer
// slices. Neither the segments nor the index contain pointers, so the
// garbage collector's mark phase scans O(#segments) words instead of
// O(#entries) boxed values — residency becomes GC-free no matter how
// many objects the store holds.
//
// The index is also the recency order: two more flat columns link the
// live slots into a list, most recently used first, so the one table
// that says where a value is also says which value goes next. Get,
// BytesLen and Put move an entry to the head; Has peeks. There is no
// second residency table and no per-entry node to keep in step.
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
// from the tail of the list, after any rotation it caused. EvictOldest
// evicts the tail on demand.
//
// A Store is not safe for concurrent use; in the prefetch engine each
// shard owns one behind its shard mutex.
package slab

import "encoding/binary"

const (
	// headerBytes precedes every payload inside a segment:
	// [id int64 LE][payload length uint32 LE]. The header lets rotation
	// and compaction walk a segment and name the entries they find.
	headerBytes = 12

	// DefaultSegmentBytes is the segment size used when New is given a
	// non-positive one — large enough that GC scan cost is negligible,
	// small enough that one rotation evicts a modest slice of the cache.
	DefaultSegmentBytes = 1 << 20

	// maxSegmentBytes bounds segBytes so a payload offset and length
	// always fit the 24-bit fields of a packed reference.
	maxSegmentBytes = 1<<24 - 1

	// minSegmentBytes keeps degenerate segment sizes (tests aside,
	// nobody wants 64-byte segments) from making every value oversized.
	minSegmentBytes = 64

	// maxSegments bounds the segment count so a segment number fits the
	// 16-bit field of a packed reference.
	maxSegments = 1 << 16

	// Index slot states. A live reference's offset field (bits 24–47)
	// is always ≥ headerBytes, which keeps the whole packed word
	// disjoint from these sentinels; the low 24 bits hold the payload
	// length and CAN be 0 or 1, so the invariant rests on the offset
	// field alone.
	refEmpty = 0
	refTomb  = 1

	// minIndexSlots is the initial open-addressing table size.
	minIndexSlots = 64

	// maxIndexSlots is the largest table the int32 slot numbers of the
	// recency links are trusted with; rehash refuses to grow past it.
	maxIndexSlots = 1 << 30

	// none ends the recency list, on either side, and is both ends of
	// an empty one.
	none = -1
)

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
}

// Store is the arena. The zero value is not usable; call New.
type Store struct {
	segBytes int
	maxSegs  int

	segs    [][]byte // the pointer-free payload arena
	fill    []int    // write offset per segment
	liveSeg []int    // live bytes per segment, headers included
	entered []int64  // per segment, the move that last put the cursor on it
	moves   int64
	cur     int // segment the write cursor is on

	// Open-addressing index: keys[i] is meaningful iff refs[i] is a
	// live packed reference. Flat int slices — no pointers for GC.
	keys []int64
	refs []uint64
	live int // live entries
	used int // live + tombstoned slots (drives rehash)

	// The recency list over the live slots, as slot numbers: prev[i] is
	// the slot used more recently than i, next[i] less recently. Linear
	// probing with tombstones never moves a live slot, so the links hold
	// from one rehash to the next.
	prev, next []int32
	head, tail int32 // most and least recently used; none when empty
	maxEntries int   // 0 = bounded by bytes alone

	liveBytes      int64
	rotations      int64
	rotateEvicted  int64
	compactions    int64
	compactedBytes int64

	onEvict func(id int64)
}

// New sizes a Store for roughly capacityBytes of payload split into
// segBytes segments (both clamped to sane ranges; pass 0 for the
// defaults). The capacity is a ceiling on allocated arena memory, not a
// guarantee and not the expected size: the arena grows only when
// compaction cannot make room, and rotation may evict before the ceiling
// is reached when entries skew large.
func New(capacityBytes, segBytes int) *Store {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	segBytes = min(max(segBytes, minSegmentBytes), maxSegmentBytes)
	capacityBytes = max(capacityBytes, segBytes)
	maxSegs := min((capacityBytes+segBytes-1)/segBytes, maxSegments)
	return &Store{
		segBytes: segBytes,
		maxSegs:  maxSegs,
		keys:     make([]int64, minIndexSlots),
		refs:     make([]uint64, minIndexSlots),
		prev:     make([]int32, minIndexSlots),
		next:     make([]int32, minIndexSlots),
		head:     none,
		tail:     none,
	}
}

// SetMaxEntries bounds the live entry count at n: from now on a Put that
// ends with more evicts the least recently used until it holds (n <= 0
// lifts the bound). n is clamped to 2²⁸, which keeps the index at or
// under the 2³⁰ slots its int32 links can number.
func (s *Store) SetMaxEntries(n int) {
	s.maxEntries = max(0, min(n, maxIndexSlots/4))
}

// OnEvict registers the callback that rotation, the entry bound and
// EvictOldest invoke, synchronously from inside Put or EvictOldest, once
// per live entry they displace. It must not call back into the Store.
func (s *Store) OnEvict(fn func(id int64)) { s.onEvict = fn }

// Len returns the number of live entries.
func (s *Store) Len() int { return s.live }

// MaxSegments is the segment count the capacity allows: with
// Stats.SegmentBytes, the ceiling on the arena's memory.
func (s *Store) MaxSegments() int { return s.maxSegs }

// Fits reports whether a payload of n bytes can be stored at all
// (header included it must fit a single segment).
func (s *Store) Fits(n int) bool { return n >= 0 && headerBytes+n <= s.segBytes }

// Stats returns an occupancy/churn snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:        s.live,
		Segments:       len(s.segs),
		SegmentBytes:   s.segBytes,
		LiveBytes:      s.liveBytes,
		Rotations:      s.rotations,
		RotateEvicted:  s.rotateEvicted,
		Compactions:    s.compactions,
		CompactedBytes: s.compactedBytes,
	}
}

// pack encodes (segment, payload offset, payload length) into one
// word: seg<<48 | off<<24 | len. The offset field carries the sentinel
// invariant: off ≥ headerBytes makes every live word ≥ headerBytes<<24,
// disjoint from refEmpty/refTomb even when len is 0 or 1. A layout
// change that moves or shrinks the offset field must re-derive this.
func pack(seg, off, n int) uint64 {
	return uint64(seg)<<48 | uint64(off)<<24 | uint64(n)
}

//prefetch:hotpath
func unpack(ref uint64) (seg, off, n int) {
	return int(ref >> 48), int(ref >> 24 & 0xFFFFFF), int(ref & 0xFFFFFF)
}

// slot hashes an id to its starting probe slot (Fibonacci hashing with
// a high-bit fold, like the engine's shard selector).
//
//prefetch:hotpath
func (s *Store) slot(id int64) uint64 {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return (h ^ h>>32) & uint64(len(s.refs)-1)
}

// findSlot locates id's index slot. Rehash keeps used < ¾ of the
// table, so an empty slot always terminates the probe.
//
//prefetch:hotpath
func (s *Store) findSlot(id int64) (int, bool) {
	mask := uint64(len(s.refs) - 1)
	i := s.slot(id)
	for {
		switch ref := s.refs[i]; {
		case ref == refEmpty:
			return 0, false
		case ref != refTomb && s.keys[i] == id:
			return int(i), true
		}
		i = (i + 1) & mask
	}
}

// link puts live slot i at the head of the recency list.
//
//prefetch:hotpath
func (s *Store) link(i int32) {
	s.prev[i], s.next[i] = none, s.head
	if s.head != none {
		s.prev[s.head] = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unlink takes slot i out of the recency list.
//
//prefetch:hotpath
func (s *Store) unlink(i int32) {
	p, n := s.prev[i], s.next[i]
	if p != none {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n != none {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

// touch marks slot i most recently used.
//
//prefetch:hotpath
func (s *Store) touch(i int) {
	if s.head != int32(i) {
		s.unlink(int32(i))
		s.link(int32(i))
	}
}

// insert adds a reference for an id that is NOT currently indexed
// (callers drop any existing entry first), reusing the first tombstone
// on the probe path, and links it in as most recently used.
func (s *Store) insert(id int64, ref uint64) {
	if (s.used+1)*4 >= len(s.refs)*3 {
		s.rehash()
	}
	mask := uint64(len(s.refs) - 1)
	i := s.slot(id)
	for {
		switch s.refs[i] {
		case refEmpty:
			s.used++
			fallthrough
		case refTomb:
			s.keys[i], s.refs[i] = id, ref
			s.live++
			s.link(int32(i))
			return
		}
		i = (i + 1) & mask
	}
}

// rehash rebuilds the index — doubling it when live entries genuinely
// crowd the table, or at the same size when tombstones do — by walking
// the old recency list from its tail and linking each entry in at the
// new head, which visits exactly the live slots and leaves them in the
// order they had.
func (s *Store) rehash() {
	size := len(s.refs)
	if (s.live+1)*2 >= size {
		size *= 2
	}
	if size > maxIndexSlots {
		// Unreachable under SetMaxEntries; without, 2²⁹ live entries away.
		panic("slab: index would outgrow its int32 slot numbers")
	}
	oldKeys, oldRefs, oldPrev, j := s.keys, s.refs, s.prev, s.tail
	s.keys = make([]int64, size)
	s.refs = make([]uint64, size)
	s.prev = make([]int32, size)
	s.next = make([]int32, size)
	s.head, s.tail = none, none
	s.used = s.live
	mask := uint64(size - 1)
	for ; j != none; j = oldPrev[j] {
		i := s.slot(oldKeys[j])
		for s.refs[i] != refEmpty {
			i = (i + 1) & mask
		}
		s.keys[i], s.refs[i] = oldKeys[j], oldRefs[j]
		s.link(int32(i))
	}
}

// dropSlot tombstones index slot i, unlinks it and debits the segment
// accounting for its reference.
func (s *Store) dropSlot(i int) {
	seg, _, n := unpack(s.refs[i])
	s.refs[i] = refTomb
	s.unlink(int32(i))
	s.live--
	s.liveSeg[seg] -= headerBytes + n
	s.liveBytes -= int64(headerBytes + n)
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

// EvictOldest evicts the least recently used entry, if there is one,
// reporting it through OnEvict.
func (s *Store) EvictOldest() {
	if s.tail != none {
		s.evict(int(s.tail))
	}
}

// Put stores a copy of v under id, overwriting any previous value, and
// makes id the most recently used. It returns false — storing nothing —
// only when the payload can never fit a segment (see Fits). Rotation may
// evict other entries to make room, and then the entry bound the least
// recently used ones; the id being written is immune to both (its stale
// copy is dropped from the index before space is claimed, so no segment
// walk can surface it, and it is at the head of the list the bound
// evicts from the tail of).
func (s *Store) Put(id int64, v []byte) bool {
	need := headerBytes + len(v)
	if len(v) > maxSegmentBytes || need > s.segBytes {
		return false
	}
	if i, ok := s.findSlot(id); ok {
		s.dropSlot(i)
	}
	s.ensure(need)
	seg, off := s.cur, s.fill[s.cur]
	buf := s.segs[seg]
	binary.LittleEndian.PutUint64(buf[off:], uint64(id))
	binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(v)))
	copy(buf[off+headerBytes:], v)
	s.fill[seg] = off + need
	s.insert(id, pack(seg, off+headerBytes, len(v)))
	s.liveSeg[seg] += need
	s.liveBytes += int64(need)
	for s.maxEntries > 0 && s.live > s.maxEntries {
		s.evict(int(s.tail))
	}
	return true
}

// ensure positions the write cursor on a segment with room for need
// bytes: the current one while it has room, else the one with the fewest
// live bytes, compacted if at most half of what was written there is
// live and need fits behind the survivors — at most one byte moved per
// byte reclaimed — else a fresh one while under the ceiling, else the
// one the cursor entered longest ago, rotated.
func (s *Store) ensure(need int) {
	if len(s.segs) > 0 && s.fill[s.cur]+need <= s.segBytes {
		return
	}
	seg, old := 0, 0 // fewest live bytes, entered longest ago
	for i, e := range s.entered {
		if s.liveSeg[i] < s.liveSeg[seg] {
			seg = i
		}
		if e < s.entered[old] {
			old = i
		}
	}
	switch {
	case len(s.segs) > 0 && 2*s.liveSeg[seg] <= s.fill[seg] && s.liveSeg[seg]+need <= s.segBytes:
		s.compact(seg)
	case len(s.segs) < s.maxSegs:
		seg = len(s.segs)
		s.segs = append(s.segs, make([]byte, s.segBytes))
		s.fill = append(s.fill, 0)
		s.liveSeg = append(s.liveSeg, 0)
		s.entered = append(s.entered, 0)
	default:
		seg = old
		s.rotate(seg)
	}
	s.cur = seg
	s.moves++
	s.entered[seg] = s.moves
}

// walk calls fn with the index slot and payload offset and length of
// every record in segment seg that is still live, in write order,
// stopping at the last of them (with nothing live it reads no header).
// Only an entry's CURRENT slot counts: an id overwritten or deleted
// since left a stale record here whose packed reference no longer
// matches.
func (s *Store) walk(seg int, fn func(i, off, n int)) {
	buf := s.segs[seg]
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
// repointing its index slot, and leaves the fill behind the last of
// them. Slot numbers and the recency links do not move, and nothing is
// evicted.
func (s *Store) compact(seg int) {
	s.compactions++
	w := 0
	s.walk(seg, func(i, off, n int) {
		if off != w {
			copy(s.segs[seg][w:], s.segs[seg][off:off+headerBytes+n])
			s.refs[i] = pack(seg, w+headerBytes, n)
			s.compactedBytes += int64(headerBytes + n)
		}
		w += headerBytes + n
	})
	s.fill[seg] = w
}

// Get appends id's payload to dst, marks id most recently used and
// reports whether it was present. The payload is copied out under the
// caller's lock discipline; dst is the caller's buffer (typically
// pooled), so a hit allocates nothing once dst has grown to working
// size.
//
//prefetch:hotpath
func (s *Store) Get(id int64, dst []byte) ([]byte, bool) {
	i, ok := s.findSlot(id)
	if !ok {
		return dst, false
	}
	s.touch(i)
	seg, off, n := unpack(s.refs[i])
	return append(dst, s.segs[seg][off:off+n]...), true
}

// BytesLen returns the stored payload length for id, marking it most
// recently used like the Get it stands in for.
//
//prefetch:hotpath
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
//
//prefetch:hotpath
func (s *Store) Has(id int64) bool {
	_, ok := s.findSlot(id)
	return ok
}
