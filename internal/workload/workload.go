// Package workload generates the synthetic request streams that drive
// the simulator. The paper has no released traces, so we substitute
// standard synthetic models whose parameters map directly onto the
// paper's symbols: item sizes with mean s̄, Poisson request arrivals at
// rate λ, and reference streams whose locality produces a controllable
// no-prefetch hit ratio h′.
//
// Two reference models are provided. The independent reference model
// (IRM) draws items i.i.d. from a Zipf popularity law — the classical
// caching workload. The Markov model adds first-order sequential
// structure (each item has a sparse successor set), which is what gives
// the predictors in internal/predict something genuinely learnable, so
// that access probabilities p are estimated rather than assumed.
package workload

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/rng"
)

// Item describes one cacheable object.
type Item struct {
	ID   cache.ID
	Size float64
}

// Catalog is a fixed population of items with sizes drawn once at
// construction, so an item's size is stable across the run (as a real
// object store would behave).
type Catalog struct {
	items []Item
	mean  float64
}

// NewCatalog creates n items with sizes drawn from dist using src.
// It panics if n <= 0.
func NewCatalog(n int, dist rng.Dist, src *rng.Source) *Catalog {
	if n <= 0 {
		panic(fmt.Sprintf("workload: catalog size %d must be positive", n))
	}
	items := make([]Item, n)
	sum := 0.0
	for i := range items {
		sz := dist.Sample(src)
		if sz <= 0 {
			sz = dist.Mean() // defensive: distributions here are positive
		}
		items[i] = Item{ID: cache.ID(i), Size: sz}
		sum += items[i].Size
	}
	return &Catalog{items: items, mean: sum / float64(n)}
}

// NewUniformCatalog creates n items all of the given size — the paper's
// setting where every item has size s̄ exactly.
func NewUniformCatalog(n int, size float64) *Catalog {
	if n <= 0 {
		panic(fmt.Sprintf("workload: catalog size %d must be positive", n))
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: cache.ID(i), Size: size}
	}
	return &Catalog{items: items, mean: size}
}

// Len returns the number of items.
func (c *Catalog) Len() int { return len(c.items) }

// Item returns the item with the given id. It panics on out-of-range
// ids, which indicate a wiring bug between generator and catalog.
func (c *Catalog) Item(id cache.ID) Item {
	if id < 0 || int(id) >= len(c.items) {
		panic(fmt.Sprintf("workload: item id %d out of range [0,%d)", id, len(c.items)))
	}
	return c.items[id]
}

// Size returns the size of item id.
func (c *Catalog) Size(id cache.ID) float64 { return c.Item(id).Size }

// MeanSize returns the empirical mean item size s̄ of the catalog.
func (c *Catalog) MeanSize() float64 { return c.mean }

// Source produces a reference stream: successive item requests from one
// logical user population.
type Source interface {
	// Next returns the next requested item id.
	Next() cache.ID
	// Name identifies the model in reports.
	Name() string
}

// IRM is the independent reference model: items drawn i.i.d. from a
// Zipf(n, s) popularity distribution.
type IRM struct {
	zipf *rng.Zipf
	src  *rng.Source
}

// NewIRM creates an IRM source over n items with Zipf exponent s.
func NewIRM(n int, s float64, src *rng.Source) *IRM {
	return &IRM{zipf: rng.NewZipf(n, s), src: src}
}

// Next implements Source.
func (m *IRM) Next() cache.ID { return cache.ID(m.zipf.Sample(m.src)) }

// Name implements Source.
func (m *IRM) Name() string { return fmt.Sprintf("irm-%s", m.zipf) }

// Prob returns the stationary probability of item id, known in closed
// form for IRM — used by oracle predictors and tests.
func (m *IRM) Prob(id cache.ID) float64 { return m.zipf.Prob(int(id)) }

// Markov is a first-order Markov reference stream over n items. Each
// item has Fanout successors chosen at random; transition weights decay
// geometrically so one or two successors dominate (as link-following in
// web navigation does). With probability Restart the next request
// instead jumps to an item drawn under Zipf(ZipfS), which keeps the
// chain ergodic and mixes global popularity with sequential structure;
// a ZipfS of zero, which is what a config that leaves it unset gets,
// makes that draw uniform.
type Markov struct {
	n       int
	fanout  int
	restart float64
	succ    [][]int          // successor ids per state
	weights []*rng.Empirical // successor weight distribution per state
	zipf    *rng.Zipf
	src     *rng.Source
	state   int
}

// MarkovConfig parameterises NewMarkov.
type MarkovConfig struct {
	// N is the number of items (states). Required.
	N int
	// Fanout is the number of successors per item (default 4).
	Fanout int
	// Decay is the geometric weight ratio between successive successors
	// (default 0.5; smaller = more deterministic chains).
	Decay float64
	// Restart is the probability of abandoning the chain for a
	// Zipf-popular jump (default 0.1).
	Restart float64
	// ZipfS is the popularity skew used for restarts. Zero — the zero
	// value — draws restarts uniformly; only a negative value takes the
	// default, 0.8.
	ZipfS float64
}

// NewMarkov builds the chain structure deterministically from src.
func NewMarkov(cfg MarkovConfig, src *rng.Source) *Markov {
	if cfg.N <= 0 {
		panic("workload: Markov needs N > 0")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.Fanout > cfg.N {
		cfg.Fanout = cfg.N
	}
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		cfg.Decay = 0.5
	}
	if cfg.Restart <= 0 || cfg.Restart >= 1 {
		cfg.Restart = 0.1
	}
	if cfg.ZipfS < 0 {
		cfg.ZipfS = 0.8
	}
	m := &Markov{
		n:       cfg.N,
		fanout:  cfg.Fanout,
		restart: cfg.Restart,
		succ:    make([][]int, cfg.N),
		weights: make([]*rng.Empirical, cfg.N),
		zipf:    rng.NewZipf(cfg.N, cfg.ZipfS),
		src:     src,
	}
	w := make([]float64, cfg.Fanout)
	acc := 1.0
	for i := range w {
		w[i] = acc
		acc *= cfg.Decay
	}
	shared := rng.NewEmpirical(w)
	for s := 0; s < cfg.N; s++ {
		succ := make([]int, cfg.Fanout)
		seen := make(map[int]bool, cfg.Fanout)
		for i := 0; i < cfg.Fanout; i++ {
			for {
				cand := src.Intn(cfg.N)
				if !seen[cand] {
					seen[cand] = true
					succ[i] = cand
					break
				}
			}
		}
		m.succ[s] = succ
		m.weights[s] = shared
	}
	m.state = m.zipf.Sample(src)
	return m
}

// Next implements Source.
func (m *Markov) Next() cache.ID {
	if rng.Bernoulli(m.src, m.restart) {
		m.state = m.zipf.Sample(m.src)
	} else {
		pick := m.weights[m.state].Sample(m.src)
		m.state = m.succ[m.state][pick]
	}
	return cache.ID(m.state)
}

// Name implements Source.
func (m *Markov) Name() string {
	return fmt.Sprintf("markov(n=%d,fanout=%d,restart=%g)", m.n, m.fanout, m.restart)
}

// Successors exposes the true successor set of a state, for oracle
// predictors and prediction-quality tests.
func (m *Markov) Successors(id cache.ID) []cache.ID {
	out := make([]cache.ID, len(m.succ[id]))
	for i, s := range m.succ[id] {
		out[i] = cache.ID(s)
	}
	return out
}

// TransitionProb returns the true probability of moving from state
// `from` to state `to` in one step (including the restart mixture).
func (m *Markov) TransitionProb(from, to cache.ID) float64 {
	p := m.restart * m.zipf.Prob(int(to))
	for i, s := range m.succ[from] {
		if cache.ID(s) == to {
			p += (1 - m.restart) * m.weights[from].Prob(i)
		}
	}
	return p
}

// Arrivals generates Poisson request epochs at rate Lambda: the paper's
// users issuing requests at aggregate rate λ, unaffected by prefetching
// (Section 2.1's transparency assumption).
type Arrivals struct {
	inter rng.Exponential
	src   *rng.Source
	now   float64
}

// NewArrivals creates a Poisson arrival process with rate lambda.
func NewArrivals(lambda float64, src *rng.Source) *Arrivals {
	if lambda <= 0 {
		panic("workload: arrival rate must be positive")
	}
	return &Arrivals{inter: rng.Exponential{Rate: lambda}, src: src}
}

// Next returns the next arrival epoch (strictly increasing).
func (a *Arrivals) Next() float64 {
	a.now += a.inter.Sample(a.src)
	return a.now
}
