package slab

// FilterAdmission puts W-TinyLFU's admission in front of the recency
// order (Einziger, Friedman & Manes, ACM TOS 2017), with a Sketch sized
// for the entry bound and a recency window of window entries, at least
// one: call it after SetMaxEntries, with window at most half the bound.
// Count then tallies each demand access. A Put of an id not resident
// into a full store — at its entry bound, or its arena rotated once
// (Full) — stores nothing, counts a decline and returns false if the
// sketch counts the id at most once: a key on its first sighting never
// displaces a resident (Maggs & Sitaraman's "cache on second hit"), not
// even by bringing the next rotation nearer. Otherwise a new id enters
// the window's head, and once the window holds more than window entries
// its least recently used entry moves on to probation's head. If the
// move leaves the store over its entry bound, it must first out-count
// the resident the bound takes first — probation's least recently used,
// or the protected list's while probation is empty — and the loser is
// evicted. A use keeps a window entry in the window, at its head.
// PutAdmitted, for an entry the caller has already judged worth its
// place, skips the filter and puts a new id straight on probation.
func (s *Store) FilterAdmission(window int) {
	s.sketch, s.windowCap = NewSketch(s.maxEntries), max(1, window)
}

// Count counts one demand access of id, hit or miss, in the admission
// filter's sketch (nothing without FilterAdmission). Get and BytesLen
// do not count: the caller says which reads are demand accesses.
func (s *Store) Count(id int64) {
	if s.sketch != nil {
		s.sketch.Add(id)
	}
}

// admits reports whether the admission filter lets new id displace a
// resident: it was seen before this sighting.
func (s *Store) admits(id int64) bool { return s.sketch.Estimate(id) > 1 }

// first is main's first victim: probation's least recently used entry,
// or the protected list's while probation is empty (none if both are).
func (s *Store) first() int32 {
	if j := s.lists[probation].tail; j != none {
		return j
	}
	return s.lists[protected].tail
}

// spill moves the window's least recently used entry on to probation's
// head. If that leaves the store over its entry bound, the entry must
// out-count main's first victim, which is then evicted; otherwise the
// window's entry is.
func (s *Store) spill() {
	c := s.lists[window].tail
	if id := s.keys[c]; s.maxEntries > 0 && s.live > s.maxEntries {
		v := s.first()
		if v == none || s.sketch.Estimate(id) <= s.sketch.Estimate(s.keys[v]) {
			s.evict(int(c))
			return
		}
		s.evict(int(v))
		i, _ := s.findSlot(id) // the eviction may have shifted it back along its probe run
		c = int32(i)
	}
	s.unlink(c)
	s.link(c, probation)
}

// Declined returns Stats().Declined. Unlike the rest of the Store it is
// safe to call from any goroutine, as are SketchBytes and WindowEntries.
func (s *Store) Declined() int64 { return s.declined.Load() }

// SketchBytes is the admission filter's sketch size, 0 without one.
func (s *Store) SketchBytes() int {
	if s.sketch == nil {
		return 0
	}
	return s.sketch.Bytes()
}

// WindowEntries is the admission filter's recency window size, 0
// without one.
func (s *Store) WindowEntries() int { return s.windowCap }

// Sketch is a count-min sketch of how often keys are accessed behind a
// doorkeeper, the frequency half of TinyLFU (Einziger, Friedman & Manes,
// ACM TOS 2017) that Store.FilterAdmission puts in front of the recency
// order: 4 rows of 8-bit saturating counters, each row 4× the entry
// bound wide rounded up to a power of two, 8 counters to a word of one
// flat, pointer-free []uint64, and a doorkeeper of a quarter of a row's
// width in words — 64 bits a bound entry; 24 bytes an entry in all. A
// key's access sets its two doorkeeper bits if they are not both set,
// and otherwise counts in the rows. Its estimate is the least of its 4
// counters, plus one for its doorkeeper bits, so it over-counts by
// collision, never under. The doorkeeper is cleared every 10× the bound
// accesses and every counter halved every 40×, so the counts age and a
// key once hot makes way (255 falls below 2 in 7 halvings); a key that
// never repeats, as in a scan, reaches the rows only by a doorkeeper
// collision, so a first sighting mostly reads 1.
type Sketch struct {
	table, door []uint64 // the rows, each words long; the doorkeeper
	words       int      // words a row
	shift       uint     // 64 − log₂ of a row's width, 2 more for the doorkeeper's words
	adds, span  int      // increments since the doorkeeper was cleared, and the span between two clears
	spans       int      // clears since the last halving
}

// sketchRows are the rows' odd multipliers: a key's counter in row r is
// the top bits of its mixed hash times sketchRows[r]. The doorkeeper's
// word is picked the same way by doorMul, its two bits by the low 12
// bits of that product.
var sketchRows = [4]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93}

const doorMul = 0xA0761D6478BD642F

// NewSketch sizes a Sketch for an entry bound of bound (at least 1).
func NewSketch(bound int) *Sketch {
	bound = max(bound, 1)
	width, bits := 8, uint(3)
	for width < 4*bound {
		width, bits = width*2, bits+1
	}
	return &Sketch{table: make([]uint64, len(sketchRows)*width/8), door: make([]uint64, width/4),
		words: width / 8, shift: 64 - bits, span: 10 * bound}
}

// mix is splitmix64's finalizer.
func mix(id int64) uint64 {
	h := uint64(id)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// counter returns the word and bit offset of counter h's in row r.
func (s *Sketch) counter(h uint64, r int) (int, uint) {
	i := h * sketchRows[r] >> s.shift
	return r*s.words + int(i>>3), uint(i&7) * 8
}

// doorkeeper returns the word of hash h's doorkeeper bits and their mask.
func (s *Sketch) doorkeeper(h uint64) (int, uint64) {
	d := h * doorMul
	return int(d >> (s.shift + 2)), 1<<(d&63) | 1<<(d>>6&63)
}

// Add counts one access of id: in the doorkeeper if its bits are not
// all set yet, else in the rows. It clears the doorkeeper once the
// increments since the last clear reach 10× the bound, and at every
// fourth clear halves every counter.
func (s *Sketch) Add(id int64) {
	h := mix(id)
	if w, b := s.doorkeeper(h); s.door[w]&b != b {
		s.door[w] |= b
	} else {
		for r := range sketchRows {
			if w, sh := s.counter(h, r); s.table[w]>>sh&0xFF < 0xFF {
				s.table[w] += 1 << sh
			}
		}
	}
	if s.adds++; s.adds < s.span {
		return
	}
	s.adds = 0
	clear(s.door)
	if s.spans++; s.spans == 4 {
		s.spans = 0
		for i, w := range s.table {
			s.table[i] = w >> 1 & 0x7F7F7F7F7F7F7F7F
		}
	}
}

// Estimate returns how often id has been counted since the halvings, at most 256.
func (s *Sketch) Estimate(id int64) int {
	h := mix(id)
	est := uint64(0xFF)
	for r := range sketchRows {
		w, sh := s.counter(h, r)
		est = min(est, s.table[w]>>sh&0xFF)
	}
	if w, b := s.doorkeeper(h); s.door[w]&b == b {
		est++
	}
	return int(est)
}

// Bytes is the sketch's size, its doorkeeper's included.
func (s *Sketch) Bytes() int { return 8 * (len(s.table) + len(s.door)) }
