package prefetcher

import (
	"runtime"

	"repro/internal/predict"
	"repro/prefetcher/fetch"
)

// This file wires the fetch fabric (package prefetcher/fetch) into the
// engine: construction from the configured backends, speculative
// planning (one admission pass against the fabric's ρ̂′, then one route
// for the plan) and dispatch, the one path that registers, queues and,
// when the queue refuses, fails a speculative fetch. The demand side is the read core's
// two calls (multi.go): FetchDemandBatch for a request's owned misses,
// Fetch for a key whose joined flight failed; both land through land
// (engine.go), as the workers' speculative fetches do.

// newFabric assembles the engine's fetch fabric from the validated
// config: the WithBackends links, or fetcher as the one backend
// "origin" on the engine's configured link. Called from New after
// e.epoch is set, so the fabric's link estimates share the
// controller's timeline.
func (e *Engine) newFabric(fetcher Fetcher, cfg *config) (*fetch.Fabric, error) {
	backends := cfg.backends
	if len(backends) == 0 {
		backends = []fetch.Backend{{Name: "origin", Fetcher: fetcher, Bandwidth: cfg.bandwidth}}
	}
	return fetch.New(fetch.Config{
		Backends: backends,
		Hedging:  cfg.hedging,
		Now:      e.now,
	})
}

func (e *Engine) getJob() *job { return e.jobPool.Get().(*job) }

// putJob resets a job and returns it to the pool; the flight pointers
// are cleared so a pooled job does not pin resolved flights.
func (e *Engine) putJob(j *job) {
	clear(j.fs)
	j.ids, j.fs = j.ids[:0], j.fs[:0]
	e.jobPool.Put(j)
}

// schedule filters a request's candidates through the policy and
// dispatches the admitted ones. The policy runs once, against the
// fabric's ρ̂′ (Fabric.RhoPrime); only then is the plan routed, once, to
// the backend of least expected delay (Fabric.Route), and dispatched
// there whole. The cap needs no code here: the planner hands over at
// most maxPrefetch candidates, most probable first, and every policy
// admits a prefix of them. All planning state lives in the request's
// own scratch, so the pass allocates nothing in steady state. now is
// the time the link estimates are read at: a hit passes its arrival
// reading (one clock read per hit), a path that waited on a fetch reads
// the clock afresh.
func (e *Engine) schedule(sc *multiScratch, cands []predict.Prediction, now float64) {
	if len(cands) == 0 {
		return
	}
	sel := e.policy.Select(cands, e.ctrl.StateWith(e.fabric.RhoPrime(now), e.occupancy()))
	ids := sc.gids[:0]
	for _, c := range sel {
		ids = append(ids, c.Item)
	}
	sc.gids = ids
	e.dispatch(e.fabric.Route(), ids)
}

// dispatch is the one way a speculative fetch starts, for a request's
// plan: each candidate is deduplicated against the cache and the
// in-flight table and registered under its own shard's lock — one shard
// mutex at a time — and the registered flights are queued: as one job when the
// backend is batch-capable, one job per candidate otherwise, so a plain
// backend's fetches still spread over the workers. A job is drawn from
// the pool only when a candidate actually needs fetching. The admission
// decision was made when the candidate was planned and is not
// revisited.
//
// Three invariants hold for every job, whatever its size. The quiesce
// count covers every flight before a worker can retire it: specAdd
// precedes the push, and a failed push undoes it. The push is a
// non-blocking select under a shard lock — the anchor, its first
// flight's shard — with the closed flag re-checked, so Close's
// lock-cycling barrier guarantees no job enters the queue after the
// drain; a job that loses that race fails its flights with ErrClosed,
// and one that finds the queue full is shed, failing them with
// errDropped so joiners fall back to a demand fetch. And the job
// belongs to the worker from the push on — it may already be back in
// the pool and refilled — so what dispatch still needs afterwards it
// reads from ids, compacted in place to the registered ids (the
// caller's staging buffer, dead once dispatch returns), never from the
// job. The anchor's issued counters are bumped before its lock drops:
// the worker cannot land those flights until it wins that lock, so a
// prefetchUsed bump for them can never precede their issued bump. The
// other shards of a multi-shard job are settled after the push — the
// exception Stats documents.
//
// A dispatch that pushed a job yields the P once, after the loop, so a
// worker starts the fetch before the demand call returns; on one P it
// ran only once the caller blocked, for a server after its reply. The
// costs: the caller waits on the global run queue behind every other
// runnable goroutine, and a fetcher that never parks (a file read) runs
// its whole fetch inside the yield.
func (e *Engine) dispatch(backend int, ids []ID) {
	per := 1
	if e.fabric.BatchCapable(backend) {
		per = len(ids)
	}
	queued := false
	for ; len(ids) > 0; ids = ids[per:] {
		var j *job
		reg := ids[:0]
		for _, id := range ids[:per] {
			sh := e.shardFor(id)
			sh.mu.Lock()
			if e.closed.Load() {
				sh.mu.Unlock()
				break // what is registered already is failed below
			}
			if _, pending := sh.inflight[id]; pending || sh.cache.Contains(id) {
				sh.mu.Unlock()
				continue
			}
			if j == nil {
				j = e.getJob()
				j.backend = backend
			}
			f := e.newFlight()
			sh.inflight[id] = f
			sh.inflightN.Add(1)
			sh.mu.Unlock()
			j.ids, j.fs = append(j.ids, id), append(j.fs, f)
			reg = append(reg, id)
		}
		if j == nil {
			continue
		}
		e.specAdd(len(reg))
		anchor := e.shardFor(reg[0])
		pushed := false
		anchor.mu.Lock()
		closed := e.closed.Load()
		if !closed {
			select {
			case e.jobs <- j:
				pushed = true
				for _, id := range reg {
					if e.shardFor(id) == anchor {
						anchor.prefetchIssued.Add(1)
					}
				}
			default: // queue full: shed, never block the demand path
			}
		}
		anchor.mu.Unlock()
		switch {
		case pushed:
			queued = true
			for _, id := range reg {
				if sh := e.shardFor(id); sh != anchor {
					sh.prefetchIssued.Add(1)
				}
				e.emit(Event{Type: EventPrefetchIssued, ID: id})
			}
		case closed:
			e.failJob(j, ErrClosed)
			return
		default:
			e.failJob(j, errDropped)
		}
	}
	if queued {
		runtime.Gosched()
	}
}

// failJob fails every flight of a job no worker will run — shed by a
// full queue, refused by a closed engine, or drained by Close — undoing
// its quiesce count, and retires it. Only a shed is on the books: the
// candidate was admitted and the engine chose not to fetch it.
func (e *Engine) failJob(j *job, err error) {
	for i, id := range j.ids {
		sh := e.shardFor(id)
		sh.mu.Lock()
		sh.resolveLocked(id, j.fs[i], err)
		sh.mu.Unlock()
		e.releaseFlight(j.fs[i])
		e.specDone()
		if err == errDropped {
			sh.prefetchDropped.Add(1)
			e.emit(Event{Type: EventPrefetchDropped, ID: id})
		}
	}
	e.putJob(j)
}
