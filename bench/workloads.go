package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/workload"
)

// A stream yields the keys of successive requests: one key for an /obj
// request, a whole session for a /batch request. It is built from the
// seed alone; the daemon only ever sees the requests it produces.
type stream interface {
	// next appends the next request's keys to dst[:0].
	next(dst []int64) []int64
}

// A spec is one benchmark workload: the traffic, the payload size the
// origin serves, and the daemon configuration it runs against.
type spec struct {
	name string
	why  string
	// batch selects GET /batch?ids= sessions over GET /obj/{k}.
	batch bool
	// size is the origin's payload size in bytes.
	size int
	// warmup is the number of untimed requests sent after readiness.
	warmup int
	// think is how long a connection waits between a verified reply and
	// its next request during the measured window (not the warm-up).
	think time.Duration
	// The engine configuration, passed to prefetchd as flags and used
	// again to assemble the traced in-process engine. Predictor
	// (markov), policy (adaptive-a), shards and workers stay at the
	// daemon's defaults on every workload.
	cacheEntries int     // -cache
	cacheBytes   int     // -cache-bytes: the slab store's byte budget
	bandwidth    float64 // -bandwidth, bytes/s; rho-prime is normalised against it
	originBatch  bool    // -origin-batch-path /batch
	// newStream builds the request stream for a seed.
	newStream func(seed uint64) stream
}

// coldEvery is hot-obj's cold tail: every coldEvery-th request asks for
// a key never seen before. It keeps miss_ratio and
// origin_bytes_per_client_byte away from 0 (a bound is a share of the
// parent's median, so a 0 median cannot be gated) while the median
// request stays a hit and the origin sees under 1 % of the traffic.
const coldEvery = 128

// probeKey is the readiness probe's key, outside every workload's key
// space, so the probe always travels to the origin.
const probeKey = int64(1) << 40

var specs = []spec{
	{
		name:         "hot-obj",
		why:          "Zipf(0.9) over 1000 resident 256 B keys: per-request cost of prefetchd HTTP framing + engine hit path; fetch fabric and origin idle but for a 1-in-128 cold tail",
		size:         256,
		warmup:       10 * hotKeys,
		cacheEntries: 4096, cacheBytes: 8 << 20, bandwidth: 1e6,
		newStream: func(seed uint64) stream {
			return &hotStream{zipf: rng.NewZipf(hotKeys, 0.9), src: rng.NewStream(seed, "hot-obj")}
		},
	},
	{
		name:   "chain-obj",
		why:    "one Markov chain (N=2000, fanout 2) over 1 KiB keys with 200 us think time, cache 512: the paper's workload — predictor, threshold rule, speculative workers, fabric and batch wire all active",
		size:   1024,
		warmup: 10000,
		// The paper's users read what they fetched before they ask again,
		// and that idle time is when a prefetch can land. With no think
		// time the next request is on the wire before the prefetch it
		// would have used has left, and every prefetch ends as a join.
		think: 200 * time.Microsecond,
		// -bandwidth 4e6 puts the controller's rho-prime, and so the
		// reported engine.threshold, near 0.3 at the ~2 300 requests/s this
		// think time allows: the geometric middle of the gap between the
		// chain's two successor probabilities (0.84 and 0.13). prefetchd
		// always runs a fetch fabric, though, and there the engine admits
		// against the link's own demand-only rho-prime (fetch.rho_prime),
		// which the flag does not reach and which sits far lower — so both
		// successors are prefetched and engine.prefetch_accuracy is ~0.5.
		cacheEntries: 512, cacheBytes: 8 << 20, bandwidth: 4e6, originBatch: true,
		newStream: func(seed uint64) stream {
			return &chainStream{m: newChain(seed)}
		},
	},
	{
		name:         "page-batch",
		why:          "8-key /batch sessions (400 pages over 1600 shared 1 KiB objects), cache 512: GetMultiBytes, demand batching and the framed codec in both directions do the work",
		batch:        true,
		size:         1024,
		warmup:       2000,
		cacheEntries: 512, cacheBytes: 8 << 20, bandwidth: 1e7, originBatch: true,
		newStream: func(seed uint64) stream {
			return &sessionStream{s: workload.NewSessions(workload.SessionConfig{Pages: 400, Fanout: 8, Objects: 1600},
				rng.NewStream(seed, "page-batch"))}
		},
	},
	{
		name:   "scan-miss",
		why:    "non-repeating walk over 1e6 keys, 16 KiB payloads, 8 MiB cache: every request misses — origin fetch, slab Put, segment rotation and eviction on each one",
		size:   16384,
		warmup: 2000,
		// 8 MiB of 16 KiB payloads is ~500 entries, so the byte budget
		// binds long before the entry count does.
		cacheEntries: 4096, cacheBytes: 8 << 20, bandwidth: 1e6,
		newStream: func(seed uint64) stream {
			return newScanStream(seed)
		},
	},
}

// daemonFlags renders the engine configuration as prefetchd flags.
func (sp spec) daemonFlags() []string {
	f := []string{
		"-cache", strconv.Itoa(sp.cacheEntries),
		"-cache-bytes", strconv.Itoa(sp.cacheBytes),
		"-bandwidth", strconv.FormatFloat(sp.bandwidth, 'g', -1, 64),
	}
	if sp.originBatch {
		f = append(f, "-origin-batch-path", "/batch")
	}
	return f
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

const hotKeys = 1000

// hotStream sweeps every hot key once (the warm-up, so the set is
// resident before timing starts), then draws Zipf keys with the cold
// tail mixed in.
type hotStream struct {
	zipf *rng.Zipf
	src  *rng.Source
	n    int64
}

func (h *hotStream) next(dst []int64) []int64 {
	n := h.n
	h.n++
	switch {
	case n < hotKeys:
		return append(dst[:0], n)
	case n%coldEvery == 0:
		return append(dst[:0], 1_000_000+n)
	default:
		return append(dst[:0], int64(h.zipf.Sample(h.src)))
	}
}

func newChain(seed uint64) *workload.Markov {
	return workload.NewMarkov(workload.MarkovConfig{N: 2000, Fanout: 2, Decay: 0.15, Restart: 0.03},
		rng.NewStream(seed, "chain-obj"))
}

type chainStream struct{ m *workload.Markov }

func (c *chainStream) next(dst []int64) []int64 { return append(dst[:0], int64(c.m.Next())) }

type sessionStream struct {
	s    *workload.Sessions
	keys []cache.ID
}

func (s *sessionStream) next(dst []int64) []int64 {
	s.keys = s.s.NextInto(s.keys[:0])
	dst = dst[:0]
	for _, k := range s.keys {
		dst = append(dst, int64(k))
	}
	return dst
}

const scanKeys = 1_000_000

// scanStream walks all of [0, scanKeys) once in a seeded order: an
// affine map with a multiplier coprime to 10^6 (odd, not a multiple of
// 5) is a permutation, so no key repeats and nothing is learnable.
type scanStream struct {
	mul, off, n int64
}

func newScanStream(seed uint64) *scanStream {
	src := rng.NewStream(seed, "scan-miss")
	mul := int64(src.Intn(scanKeys/10))*10 + 3
	return &scanStream{mul: mul, off: int64(src.Intn(scanKeys))}
}

func (s *scanStream) next(dst []int64) []int64 {
	k := (s.mul*s.n + s.off) % scanKeys
	s.n++
	return append(dst[:0], k)
}

// objPath and batchPath render request targets.
func objPath(buf []byte, key int64) []byte {
	buf = append(buf[:0], "/obj/"...)
	return strconv.AppendInt(buf, key, 10)
}

func batchPath(buf []byte, keys []int64) []byte {
	buf = append(buf[:0], "/batch?ids="...)
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, k, 10)
	}
	return buf
}
