package slab

// FilterAdmission turns the admission filter on, with a Sketch sized for
// the entry bound: call it after SetMaxEntries. Count then tallies each
// demand access, and a Put of an id not resident that would displace a
// resident — through the entry bound or a rotation (Displaces) — stores
// it only if the sketch counts it more often than the resident the bound
// would take first: probation's least recently used, or the protected
// list's while probation is empty. Otherwise Put stores nothing, counts
// a decline and returns false. PutAdmitted is Put for an entry the
// caller has already judged worth its place: the filter is not asked.
func (s *Store) FilterAdmission() { s.sketch = NewSketch(s.maxEntries) }

// Count counts one demand access of id, hit or miss, in the admission
// filter's sketch (nothing without FilterAdmission). Get and BytesLen
// do not count: the caller says which reads are demand accesses.
func (s *Store) Count(id int64) {
	if s.sketch != nil {
		s.sketch.Add(id)
	}
}

// admits reports whether the admission filter lets new id displace the
// entry the bound takes first.
func (s *Store) admits(id int64) bool {
	j := s.lists[probation].tail
	if j == none {
		j = s.lists[protected].tail
	}
	return s.sketch.Estimate(id) > s.sketch.Estimate(s.keys[j])
}

// Declined returns Stats().Declined. Unlike the rest of the Store it is
// safe to call from any goroutine, as is SketchBytes.
func (s *Store) Declined() int64 { return s.declined.Load() }

// SketchBytes is the admission filter's sketch size, 0 without one.
func (s *Store) SketchBytes() int {
	if s.sketch == nil {
		return 0
	}
	return s.sketch.Bytes()
}

// Sketch is a count-min sketch of how often keys are accessed: the
// frequency half of TinyLFU (Einziger, Friedman & Manes, ACM TOS 2017),
// which Store.FilterAdmission puts in front of the recency order. It
// has 4 rows of 4-bit saturating counters, each row 4× the entry bound
// wide rounded up to a power of two, 16 counters to a word of one flat,
// pointer-free []uint64: 8 bytes per bound entry. A key's estimate is
// the least of its 4 counters, so it over-counts by collision, never
// under. Every counter is halved after 10× the bound increments, so the
// counts age and a key once hot makes way.
type Sketch struct {
	table        []uint64 // the rows, each words long
	words        int      // words a row
	shift        uint     // 64 − log₂ of a row's width
	adds, period int      // increments since the last halving, and the span between two
}

// sketchRows are the rows' odd multipliers: a key's counter in row r is
// the top bits of its mixed hash times sketchRows[r].
var sketchRows = [4]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93}

// NewSketch sizes a Sketch for an entry bound of bound (at least 1).
func NewSketch(bound int) *Sketch {
	bound = max(bound, 1)
	width, bits := 16, uint(4)
	for width < 4*bound {
		width, bits = width*2, bits+1
	}
	return &Sketch{table: make([]uint64, len(sketchRows)*width/16), words: width / 16, shift: 64 - bits, period: 10 * bound}
}

// counter returns the word and bit offset of id's counter in row r.
func (s *Sketch) counter(id int64, r int) (int, uint) {
	h := uint64(id) // splitmix64's finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	i := h * sketchRows[r] >> s.shift
	return r*s.words + int(i>>4), uint(i&15) * 4
}

// Add counts one access of id, and halves every counter once the
// increments since the last halving reach 10× the bound.
func (s *Sketch) Add(id int64) {
	for r := range sketchRows {
		if w, sh := s.counter(id, r); s.table[w]>>sh&15 < 15 {
			s.table[w] += 1 << sh
		}
	}
	if s.adds++; s.adds == s.period {
		s.adds = 0
		for i, w := range s.table {
			s.table[i] = w >> 1 & 0x7777777777777777
		}
	}
}

// Estimate returns how often id has been counted since the halvings, at most 15.
func (s *Sketch) Estimate(id int64) int {
	est := uint64(15)
	for r := range sketchRows {
		w, sh := s.counter(id, r)
		est = min(est, s.table[w]>>sh&15)
	}
	return int(est)
}

// Bytes is the sketch's size.
func (s *Sketch) Bytes() int { return 8 * len(s.table) }
