package cache

import "container/heap"

// node is a doubly-linked-list element used by the LRU/FIFO policies.
// A hand-rolled list avoids container/list's interface{} boxing on this
// hot path.
type node struct {
	id         ID
	prev, next *node
}

// list is an intrusive doubly linked list with a sentinel root.
// root.next is the front (most recent), root.prev the back (victim end).
// Removed nodes are recycled through a free list (chained via next), so
// a policy at steady state — every eviction paired with an insertion —
// allocates no nodes at all; the free list is bounded by the peak
// resident count.
type list struct {
	root node
	len  int
	free *node
}

// newNode returns a node for id, reusing a recycled one when available.
func (l *list) newNode(id ID) *node {
	if n := l.free; n != nil {
		l.free = n.next
		n.id = id
		n.next = nil
		return n
	}
	return &node{id: id}
}

// recycle parks a removed node for reuse by the next insertion.
func (l *list) recycle(n *node) {
	n.prev = nil
	n.next = l.free
	l.free = n
}

func newList() *list {
	l := &list{}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

func (l *list) pushFront(n *node) {
	n.prev = &l.root
	n.next = l.root.next
	l.root.next.prev = n
	l.root.next = n
	l.len++
}

func (l *list) remove(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
	l.len--
}

func (l *list) back() *node {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// LRU evicts the least recently used item.
type LRU struct {
	list  *list
	nodes map[ID]*node
}

// NewLRU returns an LRU replacement policy.
func NewLRU() *LRU {
	return &LRU{list: newList(), nodes: make(map[ID]*node)}
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Inserted implements Policy.
func (p *LRU) Inserted(id ID) {
	n := p.list.newNode(id)
	p.nodes[id] = n
	p.list.pushFront(n)
}

// Accessed implements Policy.
func (p *LRU) Accessed(id ID) {
	n, ok := p.nodes[id]
	if !ok {
		return
	}
	p.list.remove(n)
	p.list.pushFront(n)
}

// Victim implements Policy.
func (p *LRU) Victim() ID { return p.list.back().id }

// Removed implements Policy.
func (p *LRU) Removed(id ID) {
	if n, ok := p.nodes[id]; ok {
		p.list.remove(n)
		p.list.recycle(n)
		delete(p.nodes, id)
	}
}

// FIFO evicts in insertion order, ignoring accesses.
type FIFO struct {
	list  *list
	nodes map[ID]*node
}

// NewFIFO returns a FIFO replacement policy.
func NewFIFO() *FIFO {
	return &FIFO{list: newList(), nodes: make(map[ID]*node)}
}

// Name implements Policy.
func (p *FIFO) Name() string { return "fifo" }

// Inserted implements Policy.
func (p *FIFO) Inserted(id ID) {
	n := p.list.newNode(id)
	p.nodes[id] = n
	p.list.pushFront(n)
}

// Accessed implements Policy.
func (p *FIFO) Accessed(ID) {}

// Victim implements Policy.
func (p *FIFO) Victim() ID { return p.list.back().id }

// Removed implements Policy.
func (p *FIFO) Removed(id ID) {
	if n, ok := p.nodes[id]; ok {
		p.list.remove(n)
		p.list.recycle(n)
		delete(p.nodes, id)
	}
}

// lfuEntry is a heap element for the LFU policy. Ties on frequency are
// broken by insertion sequence (older first), making eviction
// deterministic.
type lfuEntry struct {
	id    ID
	freq  int64
	seq   uint64
	index int
}

type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }

func (h lfuHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}

func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *lfuHeap) Push(x any) {
	e := x.(*lfuEntry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *lfuHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// LFU evicts the least frequently used item (ties broken FIFO).
type LFU struct {
	heap    lfuHeap
	entries map[ID]*lfuEntry
	seq     uint64
}

// NewLFU returns an LFU replacement policy.
func NewLFU() *LFU {
	return &LFU{entries: make(map[ID]*lfuEntry)}
}

// Name implements Policy.
func (p *LFU) Name() string { return "lfu" }

// Inserted implements Policy.
func (p *LFU) Inserted(id ID) {
	e := &lfuEntry{id: id, freq: 1, seq: p.seq}
	p.seq++
	p.entries[id] = e
	heap.Push(&p.heap, e)
}

// Accessed implements Policy.
func (p *LFU) Accessed(id ID) {
	e, ok := p.entries[id]
	if !ok {
		return
	}
	e.freq++
	heap.Fix(&p.heap, e.index)
}

// Victim implements Policy.
func (p *LFU) Victim() ID { return p.heap[0].id }

// Removed implements Policy.
func (p *LFU) Removed(id ID) {
	e, ok := p.entries[id]
	if !ok {
		return
	}
	heap.Remove(&p.heap, e.index)
	delete(p.entries, id)
}

// Clock is the classic second-chance approximation of LRU: items sit on
// a ring with a referenced bit; the hand sweeps, clearing bits, and
// evicts the first unreferenced item it finds.
type Clock struct {
	ring []ID
	ref  map[ID]bool
	pos  map[ID]int
	hand int
}

// NewClock returns a Clock (second chance) replacement policy.
func NewClock() *Clock {
	return &Clock{ref: make(map[ID]bool), pos: make(map[ID]int)}
}

// Name implements Policy.
func (p *Clock) Name() string { return "clock" }

// Inserted implements Policy.
func (p *Clock) Inserted(id ID) {
	p.pos[id] = len(p.ring)
	p.ring = append(p.ring, id)
	p.ref[id] = true
}

// Accessed implements Policy.
func (p *Clock) Accessed(id ID) {
	if _, ok := p.pos[id]; ok {
		p.ref[id] = true
	}
}

// Victim implements Policy. It advances the hand, clearing reference
// bits, until it finds a clear one; with all bits set it degrades to
// round-robin, as in real Clock implementations.
func (p *Clock) Victim() ID {
	if len(p.ring) == 0 {
		panic("cache: clock victim on empty ring")
	}
	for {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		id := p.ring[p.hand]
		if p.ref[id] {
			p.ref[id] = false
			p.hand++
			continue
		}
		return id
	}
}

// Removed implements Policy.
func (p *Clock) Removed(id ID) {
	i, ok := p.pos[id]
	if !ok {
		return
	}
	last := len(p.ring) - 1
	p.ring[i] = p.ring[last]
	p.pos[p.ring[i]] = i
	p.ring = p.ring[:last]
	delete(p.pos, id)
	delete(p.ref, id)
	if p.hand > last {
		p.hand = 0
	}
}
