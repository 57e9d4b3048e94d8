// Package bytestore mounts the library's one cache store
// (repro/prefetcher/internal/store, which NewLRUCache and NewSLRUCache
// also return) bounded by bytes and entries, one per engine shard
// (Factory): what prefetchd runs — W-TinyLFU, a two-entry window in
// front of segmented LRU, behind a frequency filter on demand landings.
package bytestore

import (
	"repro/prefetcher"
	"repro/prefetcher/internal/store"
)

// Config sizes one Store (per shard — Factory splits a global budget).
type Config = store.Config

// Store is the slab-backed prefetcher.Cache. Construct with New or Factory.
type Store = store.Store

// New builds one Store from cfg.
func New(cfg Config) (*Store, error) { return store.New(cfg) }

// Factory validates cfg once and returns a prefetcher.WithCacheFactory
// function producing one Store per shard, with the byte and entry
// budgets ceil-split across the shard count.
func Factory(cfg Config) (func(shard, shards int) prefetcher.Cache, error) {
	if _, err := New(cfg); err != nil { // an empty Store costs its 64-slot index
		return nil, err
	}
	return func(_, shards int) prefetcher.Cache {
		per, shards := cfg, max(shards, 1)
		per.CapacityBytes = (cfg.CapacityBytes + shards - 1) / shards
		if cfg.MaxEntries > 0 {
			per.MaxEntries = (cfg.MaxEntries + shards - 1) / shards
		}
		s, err := New(per)
		if err != nil {
			// Unreachable: the split shrinks positive budgets, never to 0.
			panic(err)
		}
		return s
	}, nil
}
