package cache

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestEstimatorAlgorithmTranscription(t *testing.T) {
	// Walk the exact four cases of the paper's Section-4 algorithm.
	e := NewEstimator()

	// Prefetch item 1 → untagged.
	e.OnPrefetch(1)
	if e.Tagged(1) {
		t.Error("prefetched entry must start untagged")
	}

	// Access untagged entry: naccess++, no hit, promote to tagged.
	if e.OnHit(1) {
		t.Error("first access to untagged entry should not be a tagged hit")
	}
	if e.Accesses() != 1 || e.TaggedHits() != 0 {
		t.Errorf("counters = %d/%d, want 1/0", e.Accesses(), e.TaggedHits())
	}
	if !e.Tagged(1) {
		t.Error("untagged entry should be promoted on access")
	}

	// Access the now-tagged entry: naccess++, nhit++.
	if !e.OnHit(1) {
		t.Error("tagged entry access should count as hit")
	}
	if e.Accesses() != 2 || e.TaggedHits() != 1 {
		t.Errorf("counters = %d/%d, want 2/1", e.Accesses(), e.TaggedHits())
	}

	// Remote access, admitted → tagged.
	e.OnRemoteAccess(2, true)
	if e.Accesses() != 3 {
		t.Errorf("naccess = %d, want 3", e.Accesses())
	}
	if !e.Tagged(2) {
		t.Error("admitted remote item should be tagged")
	}

	// Remote access, not admitted → counted but not tracked.
	e.OnRemoteAccess(3, false)
	if e.Accesses() != 4 {
		t.Errorf("naccess = %d, want 4", e.Accesses())
	}
	if e.Tagged(3) {
		t.Error("non-admitted item must not be tagged")
	}
}

func TestEstimatorEstimateA(t *testing.T) {
	e := NewEstimator()
	if e.EstimateA() != 0 {
		t.Error("estimate before any access should be 0")
	}
	e.OnRemoteAccess(1, true)
	e.OnHit(1)
	e.OnHit(1)
	e.OnRemoteAccess(2, true)
	// naccess=4, nhit=2 → ĥ′=0.5
	if e.EstimateA() != 0.5 {
		t.Errorf("EstimateA = %v, want 0.5", e.EstimateA())
	}
}

func TestEstimatorEstimateB(t *testing.T) {
	e := NewEstimator()
	e.OnRemoteAccess(1, true)
	e.OnHit(1) // ĥ′_A = 0.5
	got, err := e.EstimateB(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 100 / 80
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EstimateB = %v, want %v", got, want)
	}
	if _, err := e.EstimateB(10, 10); err == nil {
		t.Error("nC <= nF should error")
	}
	if _, err := e.EstimateB(5, 10); err == nil {
		t.Error("nC < nF should error")
	}
}

func TestEstimatorEviction(t *testing.T) {
	e := NewEstimator()
	e.OnPrefetch(1)
	e.OnEvict(1)
	if e.Resident() != 0 {
		t.Error("evicted entry still tracked")
	}
	// Re-prefetching after eviction starts untagged again.
	e.OnPrefetch(1)
	if e.Tagged(1) {
		t.Error("re-prefetched entry should be untagged")
	}
}

func TestEstimatorUnknownEntryTreatedTagged(t *testing.T) {
	e := NewEstimator()
	// A hit on an entry the estimator never saw (warm-up resident).
	if !e.OnHit(42) {
		t.Error("unknown resident should be treated as tagged")
	}
	if e.TaggedHits() != 1 {
		t.Error("unknown resident hit should count")
	}
}

func TestEstimatorReset(t *testing.T) {
	e := NewEstimator()
	e.OnPrefetch(1)
	e.OnHit(1)
	e.Reset()
	if e.Accesses() != 0 || e.TaggedHits() != 0 {
		t.Error("Reset left counters")
	}
	if !e.Tagged(1) {
		t.Error("Reset must keep tag state")
	}
}

// The counting rule for callers that keep the tag themselves: each
// request is one CountAccess, only a tagged hit bumps nhit, and the
// id-keyed half feeds the same two counters.
func TestEstimatorCountAccess(t *testing.T) {
	t.Run("tagged-hit", func(t *testing.T) {
		e := NewEstimator()
		e.CountAccess(true)
		if e.Accesses() != 1 || e.TaggedHits() != 1 {
			t.Errorf("counters = %d/%d, want 1/1", e.Accesses(), e.TaggedHits())
		}
		if e.Resident() != 0 {
			t.Error("CountAccess must not track ids")
		}
	})
	t.Run("untagged-miss-or-join", func(t *testing.T) {
		e := NewEstimator()
		e.CountAccess(false)
		if e.Accesses() != 1 || e.TaggedHits() != 0 {
			t.Errorf("counters = %d/%d, want 1/0", e.Accesses(), e.TaggedHits())
		}
	})
	t.Run("shares-counters-with-id-keyed-half", func(t *testing.T) {
		e := NewEstimator()
		e.OnRemoteAccess(1, true)
		e.CountAccess(true)
		e.OnHit(1)
		e.CountAccess(false)
		if e.Accesses() != 4 || e.TaggedHits() != 2 {
			t.Errorf("counters = %d/%d, want 4/2", e.Accesses(), e.TaggedHits())
		}
	})
	t.Run("no-prefetch-equals-hit-ratio", func(t *testing.T) {
		// With prefetching off every entry is tagged, so counting each
		// request once with its hit outcome makes ĥ′ the hit ratio.
		e := NewEstimator()
		s := NewStore(16, NewLRU())
		src := rng.New(3)
		hits, requests := 0, 0
		for i := 0; i < 2000; i++ {
			id := ID(src.Intn(40))
			hit := s.Access(id)
			if !hit {
				s.Admit(id)
			} else {
				hits++
			}
			requests++
			e.CountAccess(hit)
		}
		if want := float64(hits) / float64(requests); e.EstimateA() != want {
			t.Errorf("EstimateA = %v, want hit ratio %v", e.EstimateA(), want)
		}
	})
}

// zeroValueFirst is a test policy realising interaction model A: it
// evicts zero-value items (ids >= threshold, which the driver never
// requests) before touching useful entries; within each class it is LRU.
type zeroValueFirst struct {
	useful    *LRU
	junk      *LRU
	threshold ID
}

func newZeroValueFirst(threshold ID) *zeroValueFirst {
	return &zeroValueFirst{useful: NewLRU(), junk: NewLRU(), threshold: threshold}
}

func (p *zeroValueFirst) Name() string { return "zero-value-first" }

func (p *zeroValueFirst) pick(id ID) *LRU {
	if id >= p.threshold {
		return p.junk
	}
	return p.useful
}

func (p *zeroValueFirst) Inserted(id ID) { p.pick(id).Inserted(id) }
func (p *zeroValueFirst) Accessed(id ID) { p.pick(id).Accessed(id) }
func (p *zeroValueFirst) Removed(id ID)  { p.pick(id).Removed(id) }

func (p *zeroValueFirst) Victim() ID {
	if p.junk.list.len > 0 {
		return p.junk.Victim()
	}
	return p.useful.Victim()
}

// End-to-end check of the estimator's purpose: drive a cache with
// prefetching ON under model-A eviction (prefetched junk displaces
// zero-value occupants, per Section 2.2), and verify EstimateA recovers
// the hit ratio measured in a parallel no-prefetch run of the same
// request stream.
func TestEstimatorRecoversNoPrefetchHitRatio(t *testing.T) {
	const (
		catalog  = 2000
		capacity = 300
		requests = 60000
		seed     = 31
	)
	zipf := rng.NewZipf(catalog, 0.9)

	// Run 1: no prefetching; measure true h′ after warm-up.
	reqs := rng.NewStream(seed, "requests")
	base := NewStore(capacity, NewLRU())
	warm := requests / 5
	hits, total := 0, 0
	for i := 0; i < requests; i++ {
		id := ID(zipf.Sample(reqs))
		hit := base.Access(id)
		if !hit {
			base.Admit(id)
		}
		if i >= warm {
			total++
			if hit {
				hits++
			}
		}
	}
	trueH := float64(hits) / float64(total)

	// Run 2: same request stream, but with random prefetching injected
	// (items the user may never ask for), estimator watching.
	reqs2 := rng.NewStream(seed, "requests") // identical stream
	noise := rng.NewStream(seed, "noise")
	st := NewStore(capacity, newZeroValueFirst(catalog))
	est := NewEstimator()
	st.OnEvict(est.OnEvict)
	for i := 0; i < requests; i++ {
		if i == warm {
			est.Reset()
		}
		id := ID(zipf.Sample(reqs2))
		if st.Access(id) {
			est.OnHit(id)
		} else {
			st.Admit(id)
			est.OnRemoteAccess(id, true)
		}
		// Prefetch one low-value random item per request.
		pf := ID(catalog + noise.Intn(catalog)) // ids the user never requests
		if !st.Contains(pf) {
			st.Admit(pf)
			est.OnPrefetch(pf)
		}
	}
	got := est.EstimateA()
	// Under model-A eviction the junk only displaces junk, so the
	// estimator should recover the no-prefetch hit ratio closely.
	if math.Abs(got-trueH) > 0.03 {
		t.Errorf("estimated h′ = %.4f, true no-prefetch h′ = %.4f", got, trueH)
	}
}
