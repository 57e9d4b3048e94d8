package testutil

import "slices"

// TinyLFU is one shape of frequency-filtered store for StoreModel: the
// count-min sketch's counter width and halving period, whether a
// doorkeeper stands in front of it, the recency window's size, and
// whether a key counted once may displace a resident.
type TinyLFU struct {
	Name           string
	Bits           uint // counter width: 4 or 8
	Period         int  // every counter halves after Period × the bound increments
	Doorkeeper     bool // 64 bits a bound entry take each key's first access, cleared 4 times a Period
	Window         int  // entries of the LRU window in front of the filter
	SecondSighting bool // a demand landing counted at most once is declined when it would displace
}

// StoreModel is a reference model of the W-TinyLFU store (Einziger,
// Friedman & Manes, ACM TOS 2017), written with plain slices, least
// recently used first, and a count-min sketch of its own. It holds n
// entries: an LRU window of cfg.Window, then segmented LRU over the rest
// with half of n − cfg.Window protected. Every Access counts its key,
// hit or miss; Contains and Admit do not.
//
// A demand Admit of a new key that finds the n entries full is declined
// — nothing stored, Declined counted — if cfg.SecondSighting is set and
// the sketch counts the key at most once, or if there is no window and
// the key is counted no more often than main's first victim
// (probation's least recent entry, or protected's while probation is
// empty). Otherwise the key enters the window's most recent end. When
// the window then holds more than cfg.Window, its least recent entry
// moves to probation if the store is not over its bound; if it is, that
// entry moves only if it is counted more often than main's first victim,
// and the loser is evicted. A speculative Admit goes to probation
// unasked, evicting main's first victim when full. A hit in the window
// refreshes it there; a hit on probation moves the entry to protected,
// whose least recent entry goes back to probation past its bound.
type StoreModel struct {
	n, p, w  int
	second   bool
	lists    [3][]int64    // probation, protected, window
	on       map[int64]int // the list each resident is on
	sketch   *modelSketch
	Declined int
	OnEvict  func(id int64) // each entry the model evicts, if set
}

// NewStoreModel returns an empty model of n entries shaped by cfg.
func NewStoreModel(cfg TinyLFU, n int) *StoreModel {
	return &StoreModel{n: n, p: (n - cfg.Window) / 2, w: cfg.Window, second: cfg.SecondSighting,
		on: make(map[int64]int), sketch: newModelSketch(cfg.Bits, cfg.Period, n, cfg.Doorkeeper)}
}

// Access counts id and reports whether it is resident, refreshing it.
func (m *StoreModel) Access(id int64) bool {
	m.sketch.add(id)
	return m.use(id)
}

// The lists.
const (
	probation = iota
	protected
	window
)

// use refreshes id if it is resident and reports whether it is.
func (m *StoreModel) use(id int64) bool {
	l, ok := m.on[id]
	if !ok {
		return false
	}
	m.take(l, id)
	if l == probation {
		l = protected
	}
	m.push(l, id)
	if len(m.lists[protected]) > m.p {
		m.push(probation, m.pop(protected))
	}
	return true
}

// Admit lands id, speculative or on demand, and reports whether it is
// resident after. Landing a resident id again is a use, not counted.
func (m *StoreModel) Admit(id int64, speculative bool) bool {
	if m.use(id) {
		return true
	}
	full := m.Len() >= m.n
	if speculative {
		if full {
			m.report(m.pop(m.victim()))
		}
		m.push(probation, id)
		return true
	}
	if est := m.sketch.estimate(id); full && (m.second && est <= 1 || m.w == 0 && est <= m.sketch.estimate(m.lists[m.victim()][0])) {
		m.Declined++
		return false
	}
	m.push(window, id)
	if len(m.lists[window]) <= m.w {
		return true
	}
	c := m.pop(window)
	if full {
		if l := m.victim(); m.sketch.estimate(c) > m.sketch.estimate(m.lists[l][0]) {
			m.report(m.pop(l))
		} else {
			m.report(c) // never id: with no window, id out-counted the victim to get here
			return true
		}
	}
	m.push(probation, c)
	return true
}

// Contains reports whether id is resident.
func (m *StoreModel) Contains(id int64) bool {
	_, ok := m.on[id]
	return ok
}

// Len is the resident count.
func (m *StoreModel) Len() int { return len(m.on) }

// victim is the list main's first victim is on: probation, or protected
// while probation is empty.
func (m *StoreModel) victim() int {
	if len(m.lists[probation]) == 0 {
		return protected
	}
	return probation
}

// push puts id at list l's most recent end.
func (m *StoreModel) push(l int, id int64) {
	m.lists[l] = append(m.lists[l], id)
	m.on[id] = l
}

// pop takes list l's least recent entry off the store.
func (m *StoreModel) pop(l int) int64 {
	id := m.lists[l][0]
	m.lists[l] = m.lists[l][1:]
	delete(m.on, id)
	return id
}

// take removes id from list l.
func (m *StoreModel) take(l int, id int64) {
	i := slices.Index(m.lists[l], id)
	m.lists[l] = slices.Delete(m.lists[l], i, i+1)
	delete(m.on, id)
}

func (m *StoreModel) report(id int64) {
	if m.OnEvict != nil {
		m.OnEvict(id)
	}
}

// modelSketch is a count-min sketch of 4 rows of saturating counters of
// bits bits, each row 4× the bound wide, rounded up to a power of two
// and to at least one word; every counter halves after period × the
// bound increments. A key's counter in row r is the top bits of its
// mixed hash times row r's odd multiplier. With a doorkeeper — a
// quarter of a row's width in words, cleared every quarter period — an
// access whose two doorkeeper bits are not both set sets them and counts
// nowhere else, and an estimate adds one for them.
type modelSketch struct {
	table        []uint64
	bits, log    uint   // counter width; log₂ of a row's width
	max, half    uint64 // a counter's ceiling; the mask that keeps each halved counter in its lane
	adds, period int
	door         []uint64 // nil without a doorkeeper
	doorLog      uint     // log₂ of its words
}

var modelRows = [4]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93}

func newModelSketch(bits uint, period, bound int, door bool) *modelSketch {
	width, log := 64/int(bits), uint(0)
	for width < 4*bound {
		width *= 2
	}
	for 1<<log < width {
		log++
	}
	s := &modelSketch{table: make([]uint64, 4*width*int(bits)/64), bits: bits, log: log,
		max: 1<<bits - 1, period: period * bound}
	for sh := uint(0); sh < 64; sh += bits {
		s.half |= s.max >> 1 << sh
	}
	if door { // a quarter of a row's width in words
		s.doorLog = log - 2
		s.door = make([]uint64, 1<<s.doorLog)
	}
	return s
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

// doorBits returns the word of id's two doorkeeper bits and their mask:
// the word from the top bits of its mixed hash times an odd multiplier,
// the bits from the product's low 12.
func (s *modelSketch) doorBits(id int64) (int, uint64) {
	d := mix(id) * 0xA0761D6478BD642F
	return int(d >> (64 - s.doorLog) & (1<<s.doorLog - 1)), 1<<(d&63) | 1<<(d>>6&63)
}

// counter returns the word and bit shift of id's counter in row r.
func (s *modelSketch) counter(id int64, r int) (int, uint) {
	i := int(mix(id)*modelRows[r]>>(64-s.log)) + r<<s.log
	per := 64 / int(s.bits)
	return i / per, uint(i%per) * s.bits
}

func (s *modelSketch) add(id int64) {
	if s.door != nil {
		if w, b := s.doorBits(id); s.door[w]&b != b {
			s.door[w] |= b
			s.tick()
			return
		}
	}
	for r := range modelRows {
		w, sh := s.counter(id, r)
		if s.table[w]>>sh&s.max < s.max {
			s.table[w] += 1 << sh
		}
	}
	s.tick()
}

// tick ends an add: the doorkeeper clears every quarter period, and
// every counter halves every period.
func (s *modelSketch) tick() {
	s.adds++
	if s.door != nil && s.adds%(s.period/4) == 0 {
		clear(s.door)
	}
	if s.adds == s.period {
		s.adds = 0
		for i, w := range s.table {
			s.table[i] = w >> 1 & s.half
		}
	}
}

func (s *modelSketch) estimate(id int64) uint64 {
	est := s.max
	for r := range modelRows {
		w, sh := s.counter(id, r)
		est = min(est, s.table[w]>>sh&s.max)
	}
	if s.door != nil {
		if w, b := s.doorBits(id); s.door[w]&b == b {
			est++
		}
	}
	return est
}

// StoreCandidates are the filtered stores the store decision weighs on
// both of the paper's axes: the miss-ratio replay (internal/cache's
// TestFilteredStoreEligibility) and t̄ in virtual time
// (internal/vlink's TestStoreDecision). The first is TinyLFU's filter
// alone: 4-bit counters halved every 10× the bound, no window. The
// second-sighting rule needs the doorkeeper to decline on a stream of
// new keys: without one, a warm sketch's collisions give a key never
// seen before an estimate above 1.
var StoreCandidates = []TinyLFU{
	{Name: "4b/10× w0", Bits: 4, Period: 10},
	{Name: "8b/40× w0", Bits: 8, Period: 40},
	{Name: "8b/40× w1", Bits: 8, Period: 40, Window: 1},
	{Name: "8b/40× w2", Bits: 8, Period: 40, Window: 2},
	{Name: "8b/40× w2 2nd", Bits: 8, Period: 40, Window: 2, SecondSighting: true},
	{Name: "8b/40× dk w2 2nd", Bits: 8, Period: 40, Doorkeeper: true, Window: 2, SecondSighting: true},
}

// ShippedCandidate is the index in StoreCandidates of the shape
// store.New builds.
const ShippedCandidate = 5
