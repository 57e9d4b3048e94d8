// Package slab implements a pointer-free segmented value arena in the
// bigcache/fastcache mould: payloads are packed into a small number of
// large []byte segments and located through an open-addressing
// int64 → packed(segment, offset, length) index held in flat integer
// slices. Neither the segments nor the index contain pointers, so the
// garbage collector's mark phase scans O(#segments) words instead of
// O(#entries) boxed values — residency becomes GC-free no matter how
// many objects the store holds.
//
// Reclamation is segment rotation: Put appends at a write cursor, and
// when every segment is full the cursor wraps onto the oldest segment,
// evicts whatever entries still live there (reporting each id through
// the OnEvict callback so an external policy/accounting layer can keep
// itself consistent) and resets it. Rotation always makes progress —
// there is no free-list fragmentation state in which a Put can wedge —
// and approximates FIFO-by-write-age eviction for the byte budget,
// while the caller's count-bounded policy layer (LRU/SLRU/…) drives
// recency-based eviction through Delete.
//
// A Store is not safe for concurrent use; in the prefetch engine each
// shard owns one behind its shard mutex.
package slab

import "encoding/binary"

const (
	// headerBytes precedes every payload inside a segment:
	// [id int64 LE][payload length uint32 LE]. The header lets rotation
	// walk a segment and name the entries it is about to evict.
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
)

// Stats is a point-in-time snapshot of a Store's occupancy and churn.
type Stats struct {
	Entries       int   // live entries
	Segments      int   // segments allocated (≤ the capacity-derived max)
	SegmentBytes  int   // size of each segment
	LiveBytes     int64 // bytes referenced by live entries, headers included
	Rotations     int64 // segments recycled by the write cursor wrapping
	RotateEvicted int64 // live entries evicted by rotation
}

// Store is the arena. The zero value is not usable; call New.
type Store struct {
	segBytes int
	maxSegs  int

	segs    [][]byte // the pointer-free payload arena
	fill    []int    // write offset per segment
	liveSeg []int    // live-entry count per segment
	cur     int      // segment the write cursor is on

	// Open-addressing index: keys[i] is meaningful iff refs[i] is a
	// live packed reference. Flat int slices — no pointers for GC.
	keys []int64
	refs []uint64
	live int // live entries
	used int // live + tombstoned slots (drives rehash)

	liveBytes     int64
	rotations     int64
	rotateEvicted int64

	onEvict func(id int64)
}

// New sizes a Store for roughly capacityBytes of payload split into
// segBytes segments (both clamped to sane ranges; pass 0 for the
// defaults). The capacity is a ceiling on allocated arena memory, not a
// guarantee: rotation may evict before the ceiling is reached when
// entries skew large.
func New(capacityBytes, segBytes int) *Store {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if segBytes < minSegmentBytes {
		segBytes = minSegmentBytes
	}
	if segBytes > maxSegmentBytes {
		segBytes = maxSegmentBytes
	}
	if capacityBytes < segBytes {
		capacityBytes = segBytes
	}
	maxSegs := capacityBytes / segBytes
	if capacityBytes%segBytes != 0 {
		maxSegs++
	}
	if maxSegs > maxSegments {
		maxSegs = maxSegments
	}
	return &Store{
		segBytes: segBytes,
		maxSegs:  maxSegs,
		keys:     make([]int64, minIndexSlots),
		refs:     make([]uint64, minIndexSlots),
	}
}

// OnEvict registers the callback rotation invokes, synchronously from
// inside Put, once per live entry it displaces. The callback must not
// call back into the Store.
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
		Entries:       s.live,
		Segments:      len(s.segs),
		SegmentBytes:  s.segBytes,
		LiveBytes:     s.liveBytes,
		Rotations:     s.rotations,
		RotateEvicted: s.rotateEvicted,
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

// insert adds a reference for an id that is NOT currently indexed
// (callers drop any existing entry first), reusing the first tombstone
// on the probe path.
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
			return
		}
		i = (i + 1) & mask
	}
}

// rehash rebuilds the index — doubling it when live entries genuinely
// crowd the table, or at the same size when tombstones do.
func (s *Store) rehash() {
	size := len(s.refs)
	if (s.live+1)*2 >= size {
		size *= 2
	}
	oldKeys, oldRefs := s.keys, s.refs
	s.keys = make([]int64, size)
	s.refs = make([]uint64, size)
	s.used = s.live
	mask := uint64(size - 1)
	for j, ref := range oldRefs {
		if ref == refEmpty || ref == refTomb {
			continue
		}
		i := s.slot(oldKeys[j])
		for s.refs[i] != refEmpty {
			i = (i + 1) & mask
		}
		s.keys[i], s.refs[i] = oldKeys[j], ref
	}
}

// dropSlot tombstones index slot i and debits the segment accounting
// for its reference.
func (s *Store) dropSlot(i int) {
	seg, _, n := unpack(s.refs[i])
	s.refs[i] = refTomb
	s.live--
	s.liveSeg[seg]--
	s.liveBytes -= int64(headerBytes + n)
}

// Delete removes id if present. No eviction callback fires — this is
// the path the external policy layer drives, and it already knows.
func (s *Store) Delete(id int64) bool {
	i, ok := s.findSlot(id)
	if !ok {
		return false
	}
	s.dropSlot(i)
	return true
}

// Put stores a copy of v under id, overwriting any previous value.
// It returns false — storing nothing — only when the payload can never
// fit a segment (see Fits). Rotation may evict other entries to make
// room; the id being written is immune (its stale copy is dropped from
// the index before space is claimed, so the rotation walk cannot
// surface it).
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
	s.liveSeg[seg]++
	s.liveBytes += int64(need)
	return true
}

// ensure positions the write cursor on a segment with room for need
// bytes: the current one, a freshly allocated one while under the
// capacity ceiling, or — once all segments exist — the next segment in
// the ring, evicted and reset.
func (s *Store) ensure(need int) {
	if len(s.segs) > 0 && s.fill[s.cur]+need <= s.segBytes {
		return
	}
	if len(s.segs) < s.maxSegs {
		s.segs = append(s.segs, make([]byte, s.segBytes))
		s.fill = append(s.fill, 0)
		s.liveSeg = append(s.liveSeg, 0)
		s.cur = len(s.segs) - 1
		return
	}
	next := s.cur + 1
	if next >= len(s.segs) {
		next = 0
	}
	s.rotate(next)
	s.cur = next
}

// rotate evicts every entry still live in segment seg — walking its
// headers and tombstoning the index slots that still reference it —
// and resets it for reuse. Each displaced id is reported through the
// OnEvict callback.
func (s *Store) rotate(seg int) {
	s.rotations++
	if s.liveSeg[seg] > 0 {
		buf := s.segs[seg]
		for off, end := 0, s.fill[seg]; off < end; {
			id := int64(binary.LittleEndian.Uint64(buf[off:]))
			n := int(binary.LittleEndian.Uint32(buf[off+8:]))
			poff := off + headerBytes
			// Only the entry's CURRENT index slot counts: an id
			// overwritten into a later segment left a stale record here
			// whose packed reference no longer matches.
			if i, ok := s.findSlot(id); ok && s.refs[i] == pack(seg, poff, n) {
				s.dropSlot(i)
				s.rotateEvicted++
				if s.onEvict != nil {
					s.onEvict(id)
				}
			}
			off = poff + n
		}
	}
	s.fill[seg] = 0
	s.liveSeg[seg] = 0
}

// Get appends id's payload to dst and reports whether id was present.
// The payload is copied out under the caller's lock discipline; dst is
// the caller's buffer (typically pooled), so a hit allocates nothing
// once dst has grown to working size.
//
//prefetch:hotpath
func (s *Store) Get(id int64, dst []byte) ([]byte, bool) {
	i, ok := s.findSlot(id)
	if !ok {
		return dst, false
	}
	seg, off, n := unpack(s.refs[i])
	return append(dst, s.segs[seg][off:off+n]...), true
}

// View returns a zero-copy window onto id's payload. The slice aliases
// the arena: it is valid only until the next Put or Delete, and the
// caller must not retain or mutate it. The three-index form keeps an
// append through the view from clobbering a neighbouring entry.
//
//prefetch:hotpath
func (s *Store) View(id int64) ([]byte, bool) {
	i, ok := s.findSlot(id)
	if !ok {
		return nil, false
	}
	seg, off, n := unpack(s.refs[i])
	return s.segs[seg][off : off+n : off+n], true
}

// BytesLen returns the stored payload length for id.
//
//prefetch:hotpath
func (s *Store) BytesLen(id int64) (int, bool) {
	i, ok := s.findSlot(id)
	if !ok {
		return 0, false
	}
	_, _, n := unpack(s.refs[i])
	return n, true
}
