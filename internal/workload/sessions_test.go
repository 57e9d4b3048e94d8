package workload

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
)

// TestZeroSkewIsUniform pins what a config that leaves a skew unset
// gets: zero is a skew of zero, a uniform draw, and only a negative
// value takes the documented default. Markov's restarts and Sessions'
// pages draw under a Zipf of the configured skew; Sessions' objects are
// drawn at construction, so their law shows in how many pages share
// the most shared object: at seed 1, 7 of 400 when uniform over 1,600
// objects, 126 under Zipf(0.8).
func TestZeroSkewIsUniform(t *testing.T) {
	for _, tc := range []struct {
		skew, want float64
	}{{0, 0}, {-1, 0.8}} {
		if m := NewMarkov(MarkovConfig{N: 100, ZipfS: tc.skew}, rng.New(1)); m.zipf.S() != tc.want {
			t.Errorf("MarkovConfig.ZipfS %v: restarts draw under Zipf(%v), want Zipf(%v)", tc.skew, m.zipf.S(), tc.want)
		}
	}
	for _, tc := range []struct {
		skew, wantPages float64
		shared          [2]int // the most shared object's page count, bounds inclusive
	}{{0, 0, [2]int{1, 20}}, {-1, 0.9, [2]int{100, 400}}} {
		s := NewSessions(SessionConfig{Pages: 400, Fanout: 8, Objects: 1600, PageS: tc.skew, ObjectS: tc.skew}, rng.New(1))
		if s.zipf.S() != tc.wantPages {
			t.Errorf("SessionConfig.PageS %v: pages draw under Zipf(%v), want Zipf(%v)", tc.skew, s.zipf.S(), tc.wantPages)
		}
		pages := map[cache.ID]int{}
		most := 0
		for _, keys := range s.keys {
			for _, k := range keys[1:] {
				pages[k]++
				most = max(most, pages[k])
			}
		}
		t.Logf("skew %v: the most shared object is on %d of 400 pages", tc.skew, most)
		if most < tc.shared[0] || most > tc.shared[1] {
			t.Errorf("SessionConfig.ObjectS %v: the most shared object is on %d of 400 pages, want %d–%d", tc.skew, most, tc.shared[0], tc.shared[1])
		}
	}
}

func TestSessionsShape(t *testing.T) {
	cfg := SessionConfig{Pages: 50, Fanout: 8, Objects: 200}
	s := NewSessions(cfg, rng.New(1))
	if s.Universe() != 250 {
		t.Fatalf("Universe() = %d, want 250", s.Universe())
	}
	buf := make([]cache.ID, 0, 8)
	for n := 0; n < 1000; n++ {
		keys := s.NextInto(buf[:0])
		if len(keys) != 8 {
			t.Fatalf("session %d: %d keys, want %d", n, len(keys), 8)
		}
		page := keys[0]
		if page < 0 || int(page) >= cfg.Pages {
			t.Fatalf("session %d: page id %d out of [0,%d)", n, page, cfg.Pages)
		}
		seen := map[cache.ID]bool{page: true}
		for _, k := range keys[1:] {
			if int(k) < cfg.Pages || int(k) >= cfg.Pages+cfg.Objects {
				t.Fatalf("session %d: object id %d out of [%d,%d)", n, k, cfg.Pages, cfg.Pages+cfg.Objects)
			}
			if seen[k] {
				t.Fatalf("session %d: duplicate key %d", n, k)
			}
			seen[k] = true
		}
	}
}

func TestSessionsStableKeySets(t *testing.T) {
	s := NewSessions(SessionConfig{Pages: 20, Fanout: 4}, rng.New(7))
	want := append([]cache.ID(nil), s.PageKeys(3)...)
	buf := make([]cache.ID, 0, 4)
	for n := 0; n < 500; n++ {
		keys := s.NextInto(buf[:0])
		if keys[0] != 3 {
			continue
		}
		for i, k := range keys {
			if k != want[i] {
				t.Fatalf("page 3 keys changed between sessions: got %v want %v", keys, want)
			}
		}
	}
}

func TestSessionsDeterministic(t *testing.T) {
	a := NewSessions(SessionConfig{Pages: 30, Fanout: 6}, rng.New(42))
	b := NewSessions(SessionConfig{Pages: 30, Fanout: 6}, rng.New(42))
	bufA := make([]cache.ID, 0, 6)
	bufB := make([]cache.ID, 0, 6)
	for n := 0; n < 200; n++ {
		ka, kb := a.NextInto(bufA[:0]), b.NextInto(bufB[:0])
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("session %d diverges between identically seeded generators", n)
			}
		}
	}
}

func TestSessionsNextIntoAllocFree(t *testing.T) {
	s := NewSessions(SessionConfig{Pages: 40, Fanout: 8}, rng.New(9))
	buf := make([]cache.ID, 0, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = s.NextInto(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("NextInto allocates %.1f/op, want 0", allocs)
	}
}
