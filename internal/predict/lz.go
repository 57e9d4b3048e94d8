package predict

import (
	"fmt"
	"sort"

	"repro/internal/cache"
)

// LZ78 is the data-compression predictor of Vitter and Krishnan: the
// request stream is parsed into LZ78 phrases stored in a trie; the
// current position in the trie conditions the next-symbol distribution.
// Vitter–Krishnan showed this predictor's fault rate approaches the
// optimal for streams generated by a Markov source — which is exactly
// the workload model internal/workload provides.
type LZ78 struct {
	root  *lzNode
	cur   *lzNode
	nodes int
}

type lzNode struct {
	children map[cache.ID]*lzNode
	// visits counts traversals through this node (for children
	// probability normalisation).
	visits int64
}

func newLZNode() *lzNode {
	return &lzNode{children: make(map[cache.ID]*lzNode)}
}

// NewLZ78 returns an empty LZ78 predictor.
func NewLZ78() *LZ78 {
	root := newLZNode()
	return &LZ78{root: root, cur: root, nodes: 1}
}

// Nodes returns the trie size (phrases parsed so far + 1).
func (l *LZ78) Nodes() int { return l.nodes }

// Observe implements Predictor: follow the trie edge for id, extending
// the trie and restarting at the root when the phrase ends.
func (l *LZ78) Observe(id cache.ID) {
	if child, ok := l.cur.children[id]; ok {
		child.visits++
		l.cur = child
		return
	}
	// Phrase boundary: grow the trie by one node, restart parsing.
	nd := newLZNode()
	nd.visits = 1
	l.cur.children[id] = nd
	l.nodes++
	l.cur = l.root
}

// Predict implements Predictor: the children of the current trie node,
// weighted by visit counts, with one count of escape mass reserved (so
// probabilities stay below 1 and never sum above 1).
func (l *LZ78) Predict() []Prediction {
	if len(l.cur.children) == 0 {
		return nil
	}
	var total int64 = 1 // escape
	for _, ch := range l.cur.children {
		total += ch.visits
	}
	out := make([]Prediction, 0, len(l.cur.children))
	for id, ch := range l.cur.children {
		out = append(out, Prediction{Item: id, Prob: float64(ch.visits) / float64(total)})
	}
	sortPredictions(out)
	return out
}

// Name implements Predictor.
func (l *LZ78) Name() string { return "lz78" }

// Ensemble averages the probability estimates of several predictors.
// Different model families fail differently (LZ78 is slow to warm up,
// order-1 Markov misses long patterns); a uniform mixture is the
// classic cheap hedge. All members observe every request.
type Ensemble struct {
	members []Predictor
	weight  float64 // each member's, 1/len(members)
}

// NewEnsemble creates a uniformly weighted ensemble. It panics when no
// members are given.
func NewEnsemble(members ...Predictor) *Ensemble {
	if len(members) == 0 {
		panic("predict: ensemble needs at least one member")
	}
	return &Ensemble{members: members, weight: 1 / float64(len(members))}
}

// Observe implements Predictor.
func (e *Ensemble) Observe(id cache.ID) {
	for _, m := range e.members {
		m.Observe(id)
	}
}

// Predict implements Predictor: the average of member probabilities
// (members that are silent on an item contribute zero).
func (e *Ensemble) Predict() []Prediction {
	mix := make(map[cache.ID]float64)
	for _, m := range e.members {
		for _, p := range m.Predict() {
			mix[p.Item] += e.weight * p.Prob
		}
	}
	if len(mix) == 0 {
		return nil
	}
	out := make([]Prediction, 0, len(mix))
	for id, p := range mix {
		out = append(out, Prediction{Item: id, Prob: p})
	}
	sortPredictions(out)
	return out
}

// Name implements Predictor.
func (e *Ensemble) Name() string {
	names := make([]string, len(e.members))
	for i, m := range e.members {
		names[i] = m.Name()
	}
	sort.Strings(names)
	return fmt.Sprintf("ensemble(%v)", names)
}
