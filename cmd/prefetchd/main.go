// Command prefetchd is a runnable caching proxy built on the prefetch
// engine: it serves GET /obj/{key} (and the batched GET /batch?ids=…)
// out of a per-space engine whose speculative prefetches, failover and
// hedged retries all run against real backends — HTTP
// origins via prefetcher/fetch/httpfetch and directory trees via
// prefetcher/fetch/fsfetch.
//
// Configure it either with flags (one space, one backend):
//
//	prefetchd -listen :8080 -origin http://origin:9000 -cache 4096
//
// or with a JSON config file defining several key spaces, each with
// its own backends and engine knobs (-config path; see ParseConfig).
// Every space predicts with the engine's one access model, a Markov
// table that grows only with what it has learned (512 rows after a scan,
// never past about 7 MiB), and caches in one store, the slab byte
// store bounded by -cache-bytes (64 MiB unless set) and -cache entries,
// so the daemon's memory is its cache budgets plus that table and
// nothing grows with the key space. The store is W-TinyLFU: a count-min
// sketch of reads (24 bytes per entry of -cache) filters admission, a
// demand miss that would displace a resident is declined on its key's
// first sighting and otherwise enters a two-entry recency window, whose
// oldest entry joins segmented LRU — probation, then a protected list of
// half the rest — only if its key is read more often than the resident
// it would displace; a one-shot miss or an unused prefetch goes first,
// and a prefetch the rule admitted is always stored, on probation. A
// space's policy is adaptive-a, the paper's rule under
// model A and the default, or none, the one way to run a space without
// speculation; model B's threshold, the greedy rule, the static cutoffs
// and top-k went when the virtual-time sweep in internal/vlink found
// none of them beating adaptive-a at any load.
// /stats serves per-space engine snapshots as JSON, with a memory block
// that splits the process's RSS: the store's segments and the Markov rows
// live off the Go heap (offheap_bytes), beside the heap's live bytes, its
// goal and the GC cycles run; and beside it an admission block, each
// space's declined demand landings, sketch bytes and window entries;
// /healthz is a liveness probe. On
// SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests, quiesces each engine's speculative work, closes it
// and then its backends' idle connections.
//
// The front end has two tiers and no switch between them. A connection
// starts on the wire loop (wire.go): one goroutine that does one Read,
// recognises the head, has the reply core (server.go) fill a pooled
// buffer and does one Write. It serves GET|HEAD /obj/[{space}/]{key},
// GET /batch[/{space}]?ids={list} and GET /healthz in canonical form:
// HTTP/1.1, CRLF, a head of at most 4 KiB with exactly one Host and no
// Connection, Content-Length, Transfer-Encoding, Expect, Upgrade or
// Trailer, space, key and list of [A-Za-z0-9._-] (and ','). The first
// head it does not recognise sends the connection, the bytes read so far
// unconsumed, to an http.Server on Server.Handler() for good: /stats,
// other methods and versions, bodies, escapes and everything malformed
// are net/http's to answer, to the byte. The wire loop does not watch
// the socket while it serves: a client hanging up mid-miss no longer
// cancels its demand fetch, which lands in the cache, bounded by
// -demand-timeout and by shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	cfg, err := configFromArgs(flag.CommandLine, os.Args[1:]) // a flag error exits 2 from inside
	if err != nil {
		log.Fatalf("prefetchd: %v", err)
	}
	if err := run(cfg); err != nil {
		log.Fatalf("prefetchd: %v", err)
	}
}

// flagConfig carries the single-space flag values into loadConfig.
type flagConfig struct {
	listen, origin, originBatch, fsRoot string
	cacheCap, cacheBytes, segBytes      int
	policy                              string
	bandwidth                           float64
	shards, hedgeMax                    int
	demandTO, specTO, drainTO           time.Duration
}

// configFromArgs defines the daemon's flags on fs, parses args with them
// — a flag it does not define is fs's error to report — and resolves the
// config they name.
func configFromArgs(fs *flag.FlagSet, args []string) (*Config, error) {
	var f flagConfig
	configPath := fs.String("config", "", "JSON config file (overrides the single-space flags)")
	fs.StringVar(&f.listen, "listen", ":8080", "address to serve on")
	fs.StringVar(&f.origin, "origin", "", "HTTP origin base URL for the flag-built space")
	fs.StringVar(&f.originBatch, "origin-batch-path", "", "origin batch endpoint speaking the httpfetch wire (e.g. /batch)")
	fs.StringVar(&f.fsRoot, "fs-root", "", "filesystem backend root for the flag-built space")
	fs.IntVar(&f.cacheCap, "cache", 4096, "cache capacity in items: a two-item window, then half the rest protected; a key read twice outlives one-shot keys, and a miss displaces a resident only if its key is read more often")
	fs.IntVar(&f.cacheBytes, "cache-bytes", 0, "cache byte budget (0 = 64 MiB), a ceiling: the arena holds at most about twice the peak live bytes; payloads live in segments mapped off the Go heap")
	fs.IntVar(&f.segBytes, "segment-bytes", 0, "cache segment size in bytes (0 = 1 MiB)")
	fs.StringVar(&f.policy, "policy", "adaptive-a", "prefetch policy: adaptive-a (the paper's rule, model A) or none (no speculation); the access model is always the Markov table, which grows only with states seen twice and never past about 7 MiB")
	fs.Float64Var(&f.bandwidth, "bandwidth", 1e6, "link capacity in payload-size units per second that /stats reports rho-prime and the threshold against; admission divides by the origin link's own b, measured")
	fs.IntVar(&f.shards, "shards", 0, "engine shard count (0 = auto)")
	fs.IntVar(&f.hedgeMax, "hedge-attempts", 0, "max demand attempts incl. hedges (0 = no hedging)")
	fs.DurationVar(&f.demandTO, "demand-timeout", 0, "per-attempt demand timeout on the flag-built backend (0 = none)")
	fs.DurationVar(&f.specTO, "speculative-timeout", 0, "per-attempt speculative timeout on the flag-built backend (0 = none)")
	fs.DurationVar(&f.drainTO, "shutdown-timeout", 10*time.Second, "graceful shutdown budget")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return loadConfig(*configPath, f)
}

// loadConfig resolves the daemon config: a -config file wins wholesale
// (flags other than -listen are ignored with it), otherwise the flags
// assemble a one-space config.
func loadConfig(path string, f flagConfig) (*Config, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		cfg, err := ParseConfig(data)
		if err != nil {
			return nil, err
		}
		if cfg.Listen == "" {
			cfg.Listen = f.listen
		}
		if cfg.ShutdownTimeout == 0 {
			cfg.ShutdownTimeout = Duration(f.drainTO)
		}
		return cfg, nil
	}
	if f.origin == "" && f.fsRoot == "" {
		return nil, errors.New("one of -origin, -fs-root or -config is required")
	}
	sp := SpaceConfig{
		Name:          DefaultSpace,
		CacheCapacity: f.cacheCap,
		CacheBytes:    f.cacheBytes,
		SegmentBytes:  f.segBytes,
		Policy:        f.policy,
		Bandwidth:     f.bandwidth,
		Shards:        f.shards,
	}
	if f.origin != "" {
		sp.Backends = append(sp.Backends, BackendConfig{
			Name: "origin", Type: "http",
			URL: f.origin, BatchPath: f.originBatch,
			DemandTimeout:      Duration(f.demandTO),
			SpeculativeTimeout: Duration(f.specTO),
		})
	}
	if f.fsRoot != "" {
		sp.Backends = append(sp.Backends, BackendConfig{
			Name: "disk", Type: "fs", Root: f.fsRoot,
			DemandTimeout:      Duration(f.demandTO),
			SpeculativeTimeout: Duration(f.specTO),
		})
	}
	if f.hedgeMax > 0 {
		sp.Hedging = &HedgingConfig{MaxAttempts: f.hedgeMax}
	}
	cfg := &Config{
		Listen:          f.listen,
		ShutdownTimeout: Duration(f.drainTO),
		Spaces:          []SpaceConfig{sp},
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// run boots the server and blocks until a termination signal has been
// handled: listener closed, in-flight requests drained, engines
// quiesced and closed — in that order, so no demand traffic races the
// engine teardown.
func run(cfg *Config) error {
	srv, err := NewServer(cfg, log.Printf)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	fe := newFrontEnd(srv, ln)

	errc := make(chan error, 1)
	go func() { errc <- fe.Serve() }()
	log.Printf("prefetchd: serving on %s (%d spaces)", ln.Addr(), len(cfg.Spaces))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("prefetchd: %v: draining", sig)
	case err := <-errc:
		srv.Shutdown(context.Background())
		return fmt.Errorf("serve: %w", err)
	}

	budget := time.Duration(cfg.ShutdownTimeout)
	if budget <= 0 {
		budget = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := fe.Shutdown(ctx); err != nil {
		log.Printf("prefetchd: drain: %v", err)
	}
	srv.Shutdown(ctx)
	log.Printf("prefetchd: stopped")
	return nil
}
