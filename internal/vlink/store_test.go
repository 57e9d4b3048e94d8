//go:build goexperiment.synctest

package vlink

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/testutil"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
)

// modelCache is testutil's reference model of a filtered store behind
// prefetcher.Cache, with the landing bit (Land, LandBytes), as the
// engine drives the store prefetchd mounts.
type modelCache struct {
	m    *testutil.StoreModel
	vals map[fetch.ID]any
}

func newModelCache(cfg testutil.TinyLFU) prefetcher.Cache {
	return &modelCache{m: testutil.NewStoreModel(cfg, cacheEntries), vals: make(map[fetch.ID]any)}
}

func (c *modelCache) Get(id fetch.ID) (any, bool) {
	if !c.m.Access(int64(id)) {
		return nil, false
	}
	return c.vals[id], true
}

// The byte view answers false: the engine reads every entry boxed. A
// miss is counted here, through Get, as prefetcher.Cache asks.
func (c *modelCache) GetBytes(id fetch.ID, dst []byte) ([]byte, bool) {
	if !c.Contains(id) {
		c.Get(id)
	}
	return dst, false
}

func (c *modelCache) BytesLen(id fetch.ID) (int, bool) {
	_, ok := c.GetBytes(id, nil)
	return 0, ok
}

func (c *modelCache) Put(id fetch.ID, v any) { c.Land(id, v, false) }

func (c *modelCache) Land(id fetch.ID, v any, speculative bool) bool {
	if !c.m.Admit(int64(id), speculative) {
		return false
	}
	c.vals[id] = v
	return true
}

func (c *modelCache) LandBytes(id fetch.ID, b []byte, speculative bool) bool {
	return c.Land(id, bytes.Clone(b), speculative)
}

func (c *modelCache) Contains(id fetch.ID) bool { return c.m.Contains(int64(id)) }

func (c *modelCache) Len() int { return c.m.Len() }

func (c *modelCache) OnEvict(fn func(fetch.ID)) {
	c.m.OnEvict = func(id int64) {
		delete(c.vals, fetch.ID(id))
		fn(fetch.ID(id))
	}
}

// TestStoreDecision is the store decision's axis in virtual time, the
// paper's metric t̄ (the replay's miss ratio is the other: internal/cache's
// TestFilteredStoreEligibility). It runs adaptive-a on TestRuleSweep's
// chain through a store of cacheEntries entries at ρ′ ≈ 0.256, 0.451 and
// 0.594 (λ 30, 53 and 70; b = 100; 30,000 requests a cell, the first
// 10,000 warm-up; 12,000 and 4,000 under the race detector) on seeds 1,
// 2 and 3 — seed 1 alone under -short, which the stand-in of a plain go
// test passes — through NewSLRUCache at ½, the shipped store
// (bytestore.New) and the reference model of each of
// testutil.StoreCandidates, and logs each cell's t̄ against SLRU ½'s on
// the same seed and load.
//
// The rule: every candidate is eligible, since the replay fails unless
// each strays at most half as far from the best order as SLRU ½ does. A
// candidate's score is its mean t̄ ratio against SLRU ½ over the cells.
// Those within storeLevel of the lowest score are level on t̄; of them,
// one that declines a key on its first sighting — the second-sighting
// rule behind a doorkeeper; without one a warm sketch lifts a new key's
// estimate above 1 — goes first, then the lower score. The test fails
// unless the shipped store reads its model's digits in every cell, and
// unless its model is the candidate the rule picks.
func TestStoreDecision(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	cells := []cell{{name: "slru½"}, {name: "shipped", set: func(r *run) {
		r.cache = func() prefetcher.Cache {
			s, err := bytestore.New(bytestore.Config{CapacityBytes: 1 << 20, MaxEntries: cacheEntries})
			if err != nil {
				panic(err)
			}
			return s
		}
	}}}
	for _, c := range testutil.StoreCandidates {
		c := c
		cells = append(cells, cell{name: c.Name, set: func(r *run) {
			r.cache = func() prefetcher.Cache { return newModelCache(c) }
		}})
	}
	const slru, shipped, first = 0, 1, 2 // the cells, and the first candidate's
	var rows []row
	for _, seed := range seeds {
		for _, lambda := range []float64{30, 53, 70} {
			r := run{policy: prefetcher.AdaptiveThreshold(prefetcher.ModelA()), lambda: lambda, b: 100, n: 30000, warm: 10000, seed: seed, ids: chain}
			if raceEnabled {
				r.n, r.warm = 12000, 4000
			}
			rows = append(rows, row{name: fmt.Sprintf("seed %d λ %.0f", seed, lambda), run: r})
		}
	}
	res := table(t, rows, cells)
	score := make([]float64, len(cells))
	for i, rw := range rows {
		base := res[i][slru]
		for j, c := range cells {
			r := res[i][j]
			ratio := r.AccessTime / base.AccessTime
			score[j] += ratio / float64(len(rows))
			t.Logf("%-12s %-16s t̄ %6.2f ± %4.2f ms  h %.3f  issued/req %.3f  demand util %.3f  against slru½ %+.1f %%",
				rw.name, c.name, 1e3*r.AccessTime, 1e3*r.AccessTimeCI, r.HitRatio, r.NFObserved, r.DemandUtilisation, 100*(ratio-1))
		}
		model := res[i][first+testutil.ShippedCandidate]
		if got := res[i][shipped]; got.AccessTime != model.AccessTime || got.HitRatio != model.HitRatio || got.NFObserved != model.NFObserved {
			t.Errorf("%s: the shipped store reads t̄ %.5f s, h %.4f, issued/req %.4f; its model (%s) %.5f s, %.4f, %.4f",
				rw.name, got.AccessTime, got.HitRatio, got.NFObserved, testutil.StoreCandidates[testutil.ShippedCandidate].Name,
				model.AccessTime, model.HitRatio, model.NFObserved)
		}
	}
	for j, c := range cells {
		t.Logf("%-16s mean t̄ against slru½ over %d cells %+.2f %%", c.name, len(rows), 100*(score[j]-1))
	}
	pick := storePick(score[first:])
	t.Logf("the rule picks %s; the shipped store is %s", testutil.StoreCandidates[pick].Name,
		testutil.StoreCandidates[testutil.ShippedCandidate].Name)
	if pick != testutil.ShippedCandidate {
		t.Errorf("the rule picks %s, but store.New ships %s", testutil.StoreCandidates[pick].Name,
			testutil.StoreCandidates[testutil.ShippedCandidate].Name)
	}
}

// storeLevel is how far, in points of the mean t̄ ratio against SLRU ½,
// a candidate may sit above the lowest and still count as level with it:
// the race detector's shortened cells of seed 1 and the full ones order
// the two-entry-window candidates oppositely by up to 0.6 points, so a
// smaller gap is sampling noise at these run lengths.
const storeLevel = 0.01

// storePick applies TestStoreDecision's rule to the candidates' scores:
// of those within storeLevel of the lowest, one that declines first
// sightings first, then the lower score.
func storePick(score []float64) int {
	low := slices.Min(score)
	declines := func(c testutil.TinyLFU) bool { return c.SecondSighting && c.Doorkeeper }
	pick := -1
	for i, c := range testutil.StoreCandidates {
		if score[i] > low+storeLevel {
			continue
		}
		if p := testutil.StoreCandidates[max(pick, 0)]; pick < 0 || declines(c) && !declines(p) ||
			declines(c) == declines(p) && score[i] < score[pick] {
			pick = i
		}
	}
	return pick
}
