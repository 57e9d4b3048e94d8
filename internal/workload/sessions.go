package workload

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/rng"
)

// Sessions generates correlated multi-key request sessions: each
// session is one "page load" — a page drawn under Zipf(PageS) fanning
// out to a fixed set of N keys. Key 0 of a page is the page's own id;
// the remaining keys are drawn once, at construction, from a shared
// object catalog (scripts, images, fragments) under Zipf(ObjectS), so
// with a positive skew popular objects recur across many pages exactly
// as shared assets do on the web. A skew of zero, which is what a config
// that leaves it unset gets, makes that draw uniform. Because a page's key set is fixed, the stream has strong
// first-order structure (requesting the page id makes its objects
// near-certain followers) — which is what a batched demand path and
// the Markov predictors can both exploit, and what bench/'s page-batch
// workload measures.
type Sessions struct {
	pages   int
	fanout  int
	objects int
	keys    [][]cache.ID // fixed key set per page
	zipf    *rng.Zipf    // page popularity
	src     *rng.Source
}

// SessionConfig parameterises NewSessions.
type SessionConfig struct {
	// Pages is the number of distinct pages. Required.
	Pages int
	// Fanout is the number of keys per session, including the page's
	// own id (default 8).
	Fanout int
	// Objects is the size of the shared object catalog the non-root
	// keys are drawn from (default 4×Pages). Object ids start at Pages,
	// so the total id space is [0, Pages+Objects).
	Objects int
	// PageS is the Zipf skew of page popularity. Zero — the zero value —
	// draws pages uniformly; only a negative value takes the default,
	// 0.9.
	PageS float64
	// ObjectS is the Zipf skew of object popularity within the shared
	// catalog. Zero draws objects uniformly; only a negative value takes
	// the default, 0.8.
	ObjectS float64
}

// NewSessions builds the page→keys structure deterministically from
// src.
func NewSessions(cfg SessionConfig, src *rng.Source) *Sessions {
	if cfg.Pages <= 0 {
		panic("workload: Sessions needs Pages > 0")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 8
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 4 * cfg.Pages
	}
	if cfg.Fanout-1 > cfg.Objects {
		cfg.Fanout = cfg.Objects + 1
	}
	if cfg.PageS < 0 {
		cfg.PageS = 0.9
	}
	if cfg.ObjectS < 0 {
		cfg.ObjectS = 0.8
	}
	s := &Sessions{
		pages:   cfg.Pages,
		fanout:  cfg.Fanout,
		objects: cfg.Objects,
		keys:    make([][]cache.ID, cfg.Pages),
		zipf:    rng.NewZipf(cfg.Pages, cfg.PageS),
		src:     src,
	}
	objZipf := rng.NewZipf(cfg.Objects, cfg.ObjectS)
	seen := make(map[cache.ID]bool, cfg.Fanout)
	for p := 0; p < cfg.Pages; p++ {
		keys := make([]cache.ID, cfg.Fanout)
		keys[0] = cache.ID(p)
		clear(seen)
		for i := 1; i < cfg.Fanout; i++ {
			for {
				obj := cache.ID(cfg.Pages + objZipf.Sample(src))
				if !seen[obj] {
					seen[obj] = true
					keys[i] = obj
					break
				}
			}
		}
		s.keys[p] = keys
	}
	return s
}

// NextInto appends the next session's keys to dst (typically passed as
// buf[:0]) and returns the extended slice: the page id first, then its
// fanout−1 correlated objects. The append is the only mutation, so a
// caller reusing its buffer drives sessions allocation-free.
func (s *Sessions) NextInto(dst []cache.ID) []cache.ID {
	return append(dst, s.keys[s.zipf.Sample(s.src)]...)
}

// Fanout returns the keys-per-session count.
func (s *Sessions) Fanout() int { return s.fanout }

// Universe returns the total id space [0, Universe()): pages followed
// by shared objects.
func (s *Sessions) Universe() int { return s.pages + s.objects }

// PageKeys exposes page p's fixed key set, for tests and oracles.
func (s *Sessions) PageKeys(p int) []cache.ID { return s.keys[p] }

// Name identifies the model in reports.
func (s *Sessions) Name() string {
	return fmt.Sprintf("sessions(pages=%d,fanout=%d,objects=%d)", s.pages, s.fanout, s.objects)
}
