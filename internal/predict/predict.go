// Package predict implements the access models that speculative
// prefetching relies on. The paper assumes an access model exists that
// assigns probabilities p to candidate items ("for simplicity, assume
// that all the prefetched files have the same probability p"); its
// related-work section cites the concrete model families, which we build
// here so the end-to-end experiments run on *estimated* probabilities:
//
//   - Markov1: first-order Markov transition counts (Vitter–Krishnan's
//     optimal-prediction setting for Markov sources).
//   - PPM: order-k prediction by partial matching with escape to shorter
//     contexts (the data-compression approach of Vitter–Krishnan).
//   - DependencyGraph: the Padmanabhan–Mogul server-side dependency
//     graph, where an edge A→B counts occurrences of B within a
//     lookahead window after A.
//   - Popularity: global frequency ranking (the ETEL-style patterned
//     frequency baseline).
//
// All predictors are online: they learn from each observed request and
// can be queried for a probability-ranked candidate set at any time.
package predict

import (
	"fmt"
	"slices"

	"repro/internal/cache"
)

// Prediction is one candidate for the next access.
type Prediction struct {
	Item cache.ID
	// Prob is the model's estimate of the probability that Item is
	// requested next (or within the model's horizon).
	Prob float64
}

// Predictor is an online access model.
type Predictor interface {
	// Observe feeds one user request into the model.
	Observe(id cache.ID)
	// Predict returns candidates for the upcoming access, sorted by
	// decreasing probability. The slice is owned by the caller.
	Predict() []Prediction
	// Name identifies the model in reports.
	Name() string
}

// sortPredictions orders by the prediction order better defines —
// decreasing probability, ties by ascending id — so a full Predict and
// topPredictions' k best share one source of truth for the ordering.
// slices.SortFunc rather than sort.Slice, whose reflection swapper
// dominated CPU profiles when this ran on every request.
func sortPredictions(ps []Prediction) {
	slices.SortFunc(ps, func(a, b Prediction) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
}

// better reports whether a precedes b in prediction order (decreasing
// probability, ties by ascending id).
func better(a, b Prediction) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Item < b.Item
}

// topPredictions keeps the k best of a streamed candidate set in one
// small sorted buffer: O(n·k) with k bounded by the engine's prefetch
// cap, no full-row allocation, and the same deterministic order as
// sortPredictions.
type topPredictions struct {
	buf []Prediction
	k   int
}

// newTopPredictionsOn keeps the k best in a caller-supplied buffer:
// candidates accumulate in dst[:0] (growing its backing array only when
// cap(dst) < k), which is what lets the PredictTopInto paths run without
// allocating; a nil dst gets a buffer of k. dst's previous contents are
// discarded.
func newTopPredictionsOn(dst []Prediction, k int) topPredictions {
	if dst == nil {
		dst = make([]Prediction, 0, k)
	}
	return topPredictions{buf: dst[:0], k: k}
}

func (t *topPredictions) offer(p Prediction) {
	if len(t.buf) == t.k {
		if !better(p, t.buf[len(t.buf)-1]) {
			return
		}
		t.buf = t.buf[:len(t.buf)-1]
	}
	i := len(t.buf)
	t.buf = append(t.buf, p)
	for i > 0 && better(t.buf[i], t.buf[i-1]) {
		t.buf[i], t.buf[i-1] = t.buf[i-1], t.buf[i]
		i--
	}
}

// Markov1 is a first-order Markov model: it counts transitions
// prev→next and predicts the successors of the current state with their
// empirical conditional probabilities.
type Markov1 struct {
	counts map[cache.ID]map[cache.ID]int64
	totals map[cache.ID]int64
	cur    cache.ID
	seen   bool
}

// NewMarkov1 returns an empty first-order Markov predictor.
func NewMarkov1() *Markov1 {
	return &Markov1{
		counts: make(map[cache.ID]map[cache.ID]int64),
		totals: make(map[cache.ID]int64),
	}
}

// Observe implements Predictor.
func (m *Markov1) Observe(id cache.ID) {
	if m.seen {
		row := m.counts[m.cur]
		if row == nil {
			row = make(map[cache.ID]int64)
			m.counts[m.cur] = row
		}
		row[id]++
		m.totals[m.cur]++
	}
	m.cur = id
	m.seen = true
}

// Predict implements Predictor.
func (m *Markov1) Predict() []Prediction {
	if !m.seen {
		return nil
	}
	total := m.totals[m.cur]
	if total == 0 {
		return nil
	}
	row := m.counts[m.cur]
	out := make([]Prediction, 0, len(row))
	for id, c := range row {
		out = append(out, Prediction{Item: id, Prob: float64(c) / float64(total)})
	}
	sortPredictions(out)
	return out
}

// Name implements Predictor.
func (m *Markov1) Name() string { return "markov1" }

// Popularity predicts globally popular items regardless of context.
type Popularity struct {
	counts map[cache.ID]int64
	total  int64
	topK   int
}

// NewPopularity returns a popularity predictor that reports the topK
// most frequent items (topK <= 0 means all).
func NewPopularity(topK int) *Popularity {
	return &Popularity{counts: make(map[cache.ID]int64), topK: topK}
}

// Observe implements Predictor.
func (p *Popularity) Observe(id cache.ID) {
	p.counts[id]++
	p.total++
}

// Predict implements Predictor.
func (p *Popularity) Predict() []Prediction {
	if p.total == 0 {
		return nil
	}
	out := make([]Prediction, 0, len(p.counts))
	for id, c := range p.counts {
		out = append(out, Prediction{Item: id, Prob: float64(c) / float64(p.total)})
	}
	sortPredictions(out)
	if p.topK > 0 && len(out) > p.topK {
		out = out[:p.topK]
	}
	return out
}

// Name implements Predictor.
func (p *Popularity) Name() string { return "popularity" }

// DependencyGraph is the Padmanabhan–Mogul model: for each item A it
// counts, over a sliding window of the last W requests, how often each
// item B appeared within the window after A. The edge weight
// count(A→B)/count(A) estimates the probability that B follows A "soon".
type DependencyGraph struct {
	window []cache.ID
	w      int
	edges  map[cache.ID]map[cache.ID]int64
	visits map[cache.ID]int64
}

// NewDependencyGraph creates a dependency-graph predictor with lookahead
// window w (w >= 1; the classic choice is small, e.g. 2–10).
func NewDependencyGraph(w int) *DependencyGraph {
	if w < 1 {
		panic(fmt.Sprintf("predict: window %d must be >= 1", w))
	}
	return &DependencyGraph{
		w:      w,
		edges:  make(map[cache.ID]map[cache.ID]int64),
		visits: make(map[cache.ID]int64),
	}
}

// Observe implements Predictor.
func (g *DependencyGraph) Observe(id cache.ID) {
	// id follows (within window) every item currently in the window.
	for _, prev := range g.window {
		if prev == id {
			continue
		}
		row := g.edges[prev]
		if row == nil {
			row = make(map[cache.ID]int64)
			g.edges[prev] = row
		}
		row[id]++
	}
	g.visits[id]++
	g.window = append(g.window, id)
	if len(g.window) > g.w {
		g.window = g.window[1:]
	}
}

// Predict implements Predictor. Candidates are successors of the most
// recent request.
func (g *DependencyGraph) Predict() []Prediction {
	if len(g.window) == 0 {
		return nil
	}
	cur := g.window[len(g.window)-1]
	visits := g.visits[cur]
	if visits == 0 {
		return nil
	}
	row := g.edges[cur]
	out := make([]Prediction, 0, len(row))
	for id, c := range row {
		p := float64(c) / float64(visits)
		if p > 1 {
			p = 1 // an item can follow multiple times within one window
		}
		out = append(out, Prediction{Item: id, Prob: p})
	}
	sortPredictions(out)
	return out
}

// Name implements Predictor.
func (g *DependencyGraph) Name() string { return fmt.Sprintf("depgraph(w=%d)", g.w) }
