package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/predict"
	"repro/internal/prefetch"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Interaction selects how prefetched items displace cache occupants in
// the full-system simulator — the operational realisation of the
// paper's models A and B.
type Interaction int

const (
	// InteractionA evicts zero-value entries first: prefetched items
	// that were never used, then the LRU tail (Section 3.1's "evict
	// zero-value items").
	InteractionA Interaction = iota
	// InteractionB evicts a uniformly random resident entry, forfeiting
	// the average occupant value h′/n̄(C) (Section 3.2).
	InteractionB
)

// String names the interaction model.
func (i Interaction) String() string {
	switch i {
	case InteractionA:
		return "A"
	case InteractionB:
		return "B"
	default:
		return fmt.Sprintf("Interaction(%d)", int(i))
	}
}

// PredictorFactory builds one predictor per client (prediction context
// is per user, as in client-side prediction schemes).
type PredictorFactory func() predict.Predictor

// SourceFactory builds one request source per client.
type SourceFactory func(user int, src *rng.Source) workload.Source

// SystemConfig parameterises a full-system simulation.
type SystemConfig struct {
	// Users is the number of clients behind the proxy.
	Users int
	// Lambda is the aggregate request rate λ; each client issues
	// requests as Poisson(λ/Users).
	Lambda float64
	// Bandwidth is the shared link capacity b.
	Bandwidth float64
	// Catalog holds the item population and sizes.
	Catalog *workload.Catalog
	// NewSource builds each client's reference stream.
	NewSource SourceFactory
	// NewPredictor builds each client's access model. Nil disables
	// prediction (and hence prefetching).
	NewPredictor PredictorFactory
	// Policy decides what to prefetch. Nil means prefetch.None{}.
	Policy prefetch.Policy
	// Interaction selects the prefetch-cache interaction model.
	Interaction Interaction
	// CacheCapacity is each client's cache size in items (n̄(C)).
	CacheCapacity int
	// MaxPrefetch caps prefetches per request (0 = unlimited), a
	// practical guard the analysis shows is not needed for G > 0 but
	// real deployments still want.
	MaxPrefetch int
	// Requests is the total number of user requests across all clients.
	Requests int
	// Warmup is the number of initial requests excluded from metrics.
	Warmup int
	// Seed drives all randomness.
	Seed uint64
	// Trace, when non-nil, drives the simulation from recorded request
	// epochs instead of synthetic Poisson arrivals: each record fires
	// at Time×TimeScale for client (User mod Users) requesting Item.
	// NewSource is ignored; Requests caps how many records replay;
	// Lambda is still used for the closed-form comparisons only.
	Trace []workload.Record
	// TimeScale stretches (>1) or compresses (<1) trace time,
	// re-running the same reference stream at a different load.
	// 0 means 1.
	TimeScale float64
}

func (c SystemConfig) validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("sim: users = %d must be positive", c.Users)
	case c.Lambda <= 0:
		return fmt.Errorf("sim: λ = %v must be positive", c.Lambda)
	case c.Bandwidth <= 0:
		return fmt.Errorf("sim: bandwidth = %v must be positive", c.Bandwidth)
	case c.Catalog == nil:
		return fmt.Errorf("sim: catalog is required")
	case c.NewSource == nil && c.Trace == nil:
		return fmt.Errorf("sim: a source factory or a trace is required")
	case c.Trace != nil && c.TimeScale < 0:
		return fmt.Errorf("sim: time scale %v must be non-negative", c.TimeScale)
	case c.CacheCapacity <= 0:
		return fmt.Errorf("sim: cache capacity %d must be positive", c.CacheCapacity)
	case c.Requests <= 0:
		return fmt.Errorf("sim: request count %d must be positive", c.Requests)
	case c.Warmup < 0 || c.Warmup >= c.Requests:
		return fmt.Errorf("sim: warmup %d must be in [0, requests)", c.Warmup)
	}
	return nil
}

// windowRequests is how many requests, at the configured λ, the
// controller's estimates average over: its window spans
// windowRequests/λ seconds of simulated time.
const windowRequests = 500

// SystemResult carries the measured quantities of one full-system run.
type SystemResult struct {
	// AccessTime is the measured mean access time t̄ (hits cost 0) and
	// its 95% CI half-width.
	AccessTime, AccessTimeCI float64
	// HitRatio is the measured hit ratio h over the window.
	HitRatio float64
	// RetrievalPerRequest is R: total retrieval time (demand +
	// prefetch) per user request.
	RetrievalPerRequest float64
	// Utilisation is the server busy fraction over the window.
	Utilisation float64
	// NFObserved is the measured n̄(F): prefetches issued per request
	// over the post-warmup window.
	NFObserved float64
	// PrefetchIssued and PrefetchUseful count issued prefetches and
	// those later requested before eviction, over the whole run
	// (including warmup, so Accuracy is well-defined).
	PrefetchIssued, PrefetchUseful int64
	// HPrimeEstimate is the controller's Section-4 estimate ĥ′ at the
	// end of the run (model-A form).
	HPrimeEstimate float64
	// RhoPrimeEstimate is the controller's ρ̂′ at the end of the run.
	RhoPrimeEstimate float64
	// MeanOccupancy is the time-averaged per-client cache occupancy
	// (an estimate of n̄(C)).
	MeanOccupancy float64
	// Requests is the number of measured requests; Duration the
	// measured time span.
	Requests int64
	Duration float64
}

// Accuracy returns the fraction of issued prefetches that were used
// before eviction (0 when none were issued).
func (r SystemResult) Accuracy() float64 {
	if r.PrefetchIssued == 0 {
		return 0
	}
	return float64(r.PrefetchUseful) / float64(r.PrefetchIssued)
}

// client is the per-user simulation state.
type client struct {
	store  *cache.Store
	source workload.Source
	pred   predict.Predictor

	// isUntagged is the client's Section-4 tag, inverted, kept beside
	// its entries as the engine keeps its unused bit: the set of
	// resident entries that were prefetched and not yet requested. A hit
	// reports !isUntagged[id] to the estimator and clears it. untagged
	// is the same set as a FIFO (model A's zero-value candidates); it may
	// carry stale ids, which are skipped on pop.
	untagged   []cache.ID
	isUntagged map[cache.ID]bool

	// residents mirrors the cache contents for O(1) random victim
	// selection (model B).
	residents []cache.ID
	resIdx    map[cache.ID]int

	inflight  map[cache.ID]*flight
	pfPending map[cache.ID]bool // prefetch in flight, not yet claimed
}

type flight struct {
	waiters []func()
}

func (c *client) trackResident(id cache.ID) {
	if _, ok := c.resIdx[id]; ok {
		return
	}
	c.resIdx[id] = len(c.residents)
	c.residents = append(c.residents, id)
}

func (c *client) untrackResident(id cache.ID) {
	i, ok := c.resIdx[id]
	if !ok {
		return
	}
	last := len(c.residents) - 1
	c.residents[i] = c.residents[last]
	c.resIdx[c.residents[i]] = i
	c.residents = c.residents[:last]
	delete(c.resIdx, id)
}

func (c *client) pushUntagged(id cache.ID) {
	if !c.isUntagged[id] {
		c.isUntagged[id] = true
		c.untagged = append(c.untagged, id)
	}
}

func (c *client) dropUntagged(id cache.ID) {
	delete(c.isUntagged, id) // FIFO entry becomes stale; skipped on pop
}

// popUntagged returns the oldest live untagged id, or -1 when none.
func (c *client) popUntagged() cache.ID {
	for len(c.untagged) > 0 {
		id := c.untagged[0]
		c.untagged = c.untagged[1:]
		if c.isUntagged[id] {
			delete(c.isUntagged, id)
			return id
		}
	}
	return -1
}

// RunSystem executes a full-system simulation: per-client LRU caches and
// predictors, a shared processor-sharing server, a prefetch policy fed
// by online load estimates, and the Section-4 h′ estimator counting
// every request once.
func RunSystem(cfg SystemConfig) (SystemResult, error) {
	var res SystemResult
	if err := cfg.validate(); err != nil {
		return res, err
	}
	policy := cfg.Policy
	if policy == nil {
		policy = prefetch.None{}
	}

	sim := des.New()
	srv := queue.NewPSServer(sim, cfg.Bandwidth)
	ctrl := prefetch.NewController(cfg.Bandwidth, windowRequests/cfg.Lambda)
	est := ctrl.Estimator()

	clients := make([]*client, cfg.Users)
	for u := range clients {
		cl := &client{
			store:      cache.NewStore(cfg.CacheCapacity, cache.NewLRU()),
			isUntagged: make(map[cache.ID]bool),
			resIdx:     make(map[cache.ID]int),
			inflight:   make(map[cache.ID]*flight),
			pfPending:  make(map[cache.ID]bool),
		}
		if cfg.NewSource != nil {
			cl.source = cfg.NewSource(u, rng.NewStream(cfg.Seed, fmt.Sprintf("source-%d", u)))
		}
		if cfg.NewPredictor != nil {
			cl.pred = cfg.NewPredictor()
		}
		cl.store.OnEvict(func(id cache.ID) {
			cl.dropUntagged(id)
			cl.untrackResident(id)
		})
		clients[u] = cl
	}

	victimSrc := rng.NewStream(cfg.Seed, "victims")
	var (
		access         stats.Running
		occupancy      stats.Running
		retrieval      float64
		hits, total    int64
		issuedReqs     int
		issuedMeasured int64
		measStart      = -1.0
		busyAtStart    float64
	)

	// admitPrefetched inserts a completed prefetch into the client
	// cache under the configured interaction model.
	admitPrefetched := func(cl *client, id cache.ID) {
		if cl.store.Contains(id) {
			return
		}
		if cl.store.Len() >= cl.store.Capacity() {
			switch cfg.Interaction {
			case InteractionA:
				// Zero-value first: displace the oldest never-used
				// prefetched entry if one exists; otherwise Admit will
				// evict the LRU tail (the closest thing to worthless).
				if v := cl.popUntagged(); v >= 0 && cl.store.Contains(v) {
					cl.store.Remove(v)
					cl.untrackResident(v)
				}
			case InteractionB:
				// Average-value: displace a uniformly random occupant.
				if len(cl.residents) > 0 {
					v := cl.residents[victimSrc.Intn(len(cl.residents))]
					cl.store.Remove(v)
					cl.dropUntagged(v)
					cl.untrackResident(v)
				}
			}
		}
		cl.store.Admit(id)
		cl.trackResident(id)
		cl.pushUntagged(id)
	}

	handleRequest := func(cl *client, id cache.ID, measured bool) {
		now := sim.Now()
		item := cfg.Catalog.Item(id)
		ctrl.RecordRequest(now, item.Size)
		if measured {
			total++
		}

		switch {
		case cl.store.Access(id):
			// Cache hit: zero access time. The first hit on a prefetched
			// entry would have missed without prefetching.
			untagged := cl.isUntagged[id]
			est.CountAccess(!untagged)
			if untagged {
				res.PrefetchUseful++
			}
			cl.dropUntagged(id)
			if measured {
				hits++
				access.Add(0)
			}
		case cl.inflight[id] != nil:
			// Already being fetched (demand or prefetch): wait for the
			// remaining transfer time. As the engine counts a join, the
			// wait is untagged only when it is a prefetch's first use:
			// without prefetching, a wait on a demand fetch (or on a
			// prefetch already claimed) would have put no demand on the
			// link either.
			fl := cl.inflight[id]
			est.CountAccess(!cl.pfPending[id])
			if cl.pfPending[id] {
				res.PrefetchUseful++ // prefetch claimed while in flight
				delete(cl.pfPending, id)
			}
			fl.waiters = append(fl.waiters, func() {
				if measured {
					access.Add(sim.Now() - now)
				}
			})
		default:
			// Demand fetch through the shared server.
			est.CountAccess(false)
			fl := &flight{}
			cl.inflight[id] = fl
			srv.Submit(&queue.Job{Size: item.Size, Done: func(resp float64) {
				delete(cl.inflight, id)
				if measured {
					retrieval += resp
					access.Add(resp)
				}
				cl.store.Admit(id)
				cl.trackResident(id)
				for _, w := range fl.waiters {
					w()
				}
			}})
		}

		// Learn, then decide what to prefetch.
		if cl.pred == nil {
			return
		}
		cl.pred.Observe(id)
		preds := cl.pred.Predict()
		if len(preds) == 0 {
			return
		}
		st := ctrl.State(float64(cfg.CacheCapacity))
		selected := policy.Select(preds, st)
		count := 0
		for _, s := range selected {
			if cfg.MaxPrefetch > 0 && count >= cfg.MaxPrefetch {
				break
			}
			pid := s.Item
			if cl.store.Contains(pid) || cl.inflight[pid] != nil {
				continue
			}
			count++
			ctrl.RecordPrefetch()
			res.PrefetchIssued++
			if measured {
				issuedMeasured++
			}
			fl := &flight{}
			cl.inflight[pid] = fl
			cl.pfPending[pid] = true
			pItem := cfg.Catalog.Item(pid)
			srv.Submit(&queue.Job{Size: pItem.Size, Done: func(resp float64) {
				delete(cl.inflight, pid)
				stillSpeculative := cl.pfPending[pid]
				delete(cl.pfPending, pid)
				if measured {
					retrieval += resp
				}
				if stillSpeculative {
					admitPrefetched(cl, pid)
				} else {
					// A demand request claimed it mid-flight and was
					// counted then; admit as a normal (tagged) entry.
					cl.store.Admit(pid)
					cl.trackResident(pid)
				}
				for _, w := range fl.waiters {
					w()
				}
			}})
		}
	}

	// dispatch performs the shared per-request bookkeeping around
	// handleRequest: warm-up windowing and occupancy sampling.
	dispatch := func(cl *client, id cache.ID) {
		reqIdx := issuedReqs
		issuedReqs++
		measured := reqIdx >= cfg.Warmup
		if measured && measStart < 0 {
			measStart = sim.Now()
			busyAtStart = srv.BusyTime()
			est.Reset()
		}
		handleRequest(cl, id, measured)
		if measured {
			occ := 0.0
			for _, c := range clients {
				occ += float64(c.store.Len())
			}
			occupancy.Add(occ / float64(len(clients)))
		}
	}

	if cfg.Trace != nil {
		// Trace-driven arrivals: replay recorded epochs (scaled).
		scale := cfg.TimeScale
		if scale == 0 {
			scale = 1
		}
		n := len(cfg.Trace)
		if n > cfg.Requests {
			n = cfg.Requests
		}
		for i := 0; i < n; i++ {
			rec := cfg.Trace[i]
			u := rec.User % cfg.Users
			if u < 0 {
				u = 0
			}
			cl := clients[u]
			id := rec.Item
			sim.Schedule(rec.Time*scale, func() { dispatch(cl, id) })
		}
	} else {
		// Per-client Poisson arrival processes sharing a global request
		// budget.
		perClient := cfg.Lambda / float64(cfg.Users)
		inter := rng.Exponential{Rate: perClient}
		for u := range clients {
			cl := clients[u]
			arrSrc := rng.NewStream(cfg.Seed, fmt.Sprintf("arrivals-%d", u))
			var arrive func()
			arrive = func() {
				if issuedReqs >= cfg.Requests {
					return
				}
				dispatch(cl, cl.source.Next())
				sim.After(inter.Sample(arrSrc), arrive)
			}
			sim.After(inter.Sample(arrSrc), arrive)
		}
	}
	sim.Run()

	if total == 0 {
		return res, fmt.Errorf("sim: no measured requests")
	}
	res.AccessTime = access.Mean()
	res.AccessTimeCI = access.CI95()
	res.HitRatio = float64(hits) / float64(total)
	res.RetrievalPerRequest = retrieval / float64(total)
	res.Requests = total
	res.Duration = sim.Now() - measStart
	if res.Duration > 0 {
		res.Utilisation = (srv.BusyTime() - busyAtStart) / res.Duration
	}
	res.NFObserved = float64(issuedMeasured) / float64(total)
	st := ctrl.State(0)
	res.HPrimeEstimate, res.RhoPrimeEstimate = st.HPrime, st.RhoPrime
	res.MeanOccupancy = occupancy.Mean()
	return res, nil
}
