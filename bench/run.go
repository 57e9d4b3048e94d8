package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/prefetcher"
	"repro/prefetcher/fetch"
)

// runConfig is how one workload is run.
type runConfig struct {
	prefetchd string        // path of the built daemon binary
	seed      uint64        // workload seed; the daemon never sees it
	conns     int           // closed-loop keep-alive connections (C)
	slices    int           // measured slices
	sliceDur  time.Duration // length of one slice
	setups    int           // boots timed for setup_s (the last one is measured)
	probes    bool          // time the daemon's fixed paths and the client floor
}

// daemonRun is everything measured around one workload's daemon.
type daemonRun struct {
	setupS  []float64        // spawn → warm-up done, one per boot, as measured
	bootRef []float64        // the reference exchange's median latency around each boot, µs
	load    loadResult       // the window's counters, slices summed
	samples []float64        // every request latency of the window, µs
	before  prefetcher.Stats // drained, before the window
	atEnd   prefetcher.Stats // the instant load stopped: the live estimates
	after   prefetcher.Stats // drained, after the window
	origin  originCounts     // over the window
	handler []float64        // origin handler times over the daemon's life, µs
	daemon0 procSample
	daemon1 procSample
	ctxsw   int64 // the daemon's context switches over the window
	// Per measured slice, as measured: the median request latency and
	// the daemon's CPU time per completed request in µs, requests
	// completed, the bench's own CPU time in µs, the daemon's resident
	// set in MB at the slice's end, and the reference exchange's median
	// latency in µs, averaged over the bursts just before and just after.
	sliceP50, sliceCPU, sliceReqs, selfCPU, sliceRSS, refP50 []float64
	steal                                                    float64 // share of all CPU time stolen over the window
	healthz                                                  []float64
	head                                                     []float64
	stats                                                    []float64
	floorP50                                                 float64
}

// runDaemon boots prefetchd for sp (cfg.setups times, timing each boot
// through the end of warm-up), measures the window on the last boot,
// checks the accounting identities, and tears everything down. The
// daemon and the origin are stopped on every return path.
func runDaemon(sp spec, cfg runConfig) (*daemonRun, error) {
	run := &daemonRun{}
	ref, err := startReference(cfg)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	for i := 0; i < cfg.setups; i++ {
		if err := run.boot(sp, cfg, ref, i == cfg.setups-1); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// boot runs one daemon life: boot, warm up, a burst of the reference
// exchange (the one before it is the previous boot's), and — on the
// measured boot — the window and its checks.
func (run *daemonRun) boot(sp spec, cfg runConfig, ref *reference, measured bool) error {
	before := ref.last
	o, err := startOrigin(sp.size, nil)
	if err != nil {
		return err
	}
	defer o.stop()
	d, err := bootDaemon(cfg.prefetchd, sp, o)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	st := &sharedStream{s: sp.newStream(cfg.seed)}
	sent := int64(1) // the probe key
	warm, err := runLoad(d.addr, sp, st, cfg.conns, sp.warmup, 0)
	if err != nil {
		return err
	}
	run.setupS = append(run.setupS, time.Since(d.spawned).Seconds())
	if warm.failed > 0 {
		return fmt.Errorf("%s: warm-up: %d of %d requests failed: %w", sp.name, warm.failed, warm.attempted, warm.firstErr)
	}
	after, err := ref.burst()
	if err != nil {
		return err
	}
	run.bootRef = append(run.bootRef, (before+after)/2)
	sent += warm.keys

	if measured {
		ctl, err := dialClient(d.addr)
		if err != nil {
			return err
		}
		defer ctl.close()
		if err := run.window(sp, cfg, d, o, ref, ctl, st); err != nil {
			return err
		}
		if run.load.failed > 0 {
			return fmt.Errorf("%s: %d of %d requests failed: %w", sp.name, run.load.failed, run.load.attempted, run.load.firstErr)
		}
		sent += run.load.keys
		if err := checkAccounting(run.after, sent, o.counts()); err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		run.handler = o.handlerDurations()
		if cfg.probes {
			if err := run.probe(sp, cfg, d); err != nil {
				return err
			}
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	return nil
}

// refBurst is how long the reference exchange runs after each boot and
// each slice.
const refBurst = 150 * time.Millisecond

// refNominalP50 is the reference exchange's median latency, in µs, on
// the host speed the timing metrics are reported at: what this class of
// machine reads in a quiet spell. See speed.
const refNominalP50 = 11.5

// refSpec is the reference exchange: the bench's own client fetching
// 256 B objects from the bench's own origin over loopback, no daemon
// involved. It is the same kind of work the daemon does — net/http,
// read and write syscalls, goroutine hand-offs — on code no change to
// the repository touches.
var refSpec = spec{name: "reference", size: 256, newStream: func(uint64) stream { return &seqStream{} }}

// seqStream asks for keys 0, 1, 2, …
type seqStream struct{ n int64 }

func (s *seqStream) next(dst []int64) []int64 {
	s.n++
	return append(dst[:0], s.n)
}

// reference runs the reference exchange in bursts, against an origin of
// its own.
type reference struct {
	o     *origin
	st    *sharedStream
	conns int
	last  float64 // the latest burst's median latency, µs
}

// startReference starts the exchange's origin and runs a first burst.
func startReference(cfg runConfig) (*reference, error) {
	o, err := startOrigin(refSpec.size, nil)
	if err != nil {
		return nil, err
	}
	r := &reference{o: o, st: &sharedStream{s: refSpec.newStream(cfg.seed)}, conns: cfg.conns}
	if _, err := r.burst(); err != nil {
		o.stop()
		return nil, err
	}
	return r, nil
}

func (r *reference) stop() { r.o.stop() }

// burst runs the exchange for refBurst and returns its median latency.
func (r *reference) burst() (float64, error) {
	b, err := runLoad(strings.TrimPrefix(r.o.url, "http://"), refSpec, r.st, r.conns, 0, refBurst)
	if err != nil {
		return 0, err
	}
	if b.failed > 0 {
		return 0, fmt.Errorf("reference exchange: %w", b.firstErr)
	}
	r.last = p50(b.samples)
	return r.last, nil
}

// window measures cfg.slices slices of closed-loop load, each followed
// by a short burst of the reference exchange (the warm-up's burst comes
// before the first), and the counters on both sides of exactly that load.
func (run *daemonRun) window(sp spec, cfg runConfig, d *daemon, o *origin, ref *reference, ctl *client, st *sharedStream) error {
	var err error
	if run.before, err = d.drained(ctl); err != nil {
		return err
	}
	o0 := o.counts()
	if run.daemon0, err = readProc(d.pid); err != nil {
		return err
	}
	ctxsw0, err := readCtxSwitches(d.pid)
	if err != nil {
		return err
	}
	steal0, total0, err := readSteal()
	if err != nil {
		return err
	}

	prev := ref.last
	for k := 0; k < cfg.slices; k++ {
		d0, err := readProc(d.pid)
		if err != nil {
			return err
		}
		s0, err := readProc(os.Getpid())
		if err != nil {
			return err
		}
		slice, err := runLoad(d.addr, sp, st, cfg.conns, 0, cfg.sliceDur)
		if err != nil {
			return err
		}
		d1, err := readProc(d.pid)
		if err != nil {
			return err
		}
		s1, err := readProc(os.Getpid())
		if err != nil {
			return err
		}
		run.load.add(slice)
		if slice.failed > 0 {
			break // the caller reports it
		}
		next, err := ref.burst()
		if err != nil {
			return err
		}
		du, ds := cpuMicros(d0, d1)
		su, ss := cpuMicros(s0, s1)
		run.samples = append(run.samples, slice.samples...)
		run.sliceP50 = append(run.sliceP50, p50(slice.samples))
		run.sliceReqs = append(run.sliceReqs, float64(len(slice.samples)))
		run.sliceCPU = append(run.sliceCPU, ratio(du+ds, float64(len(slice.samples))))
		run.selfCPU = append(run.selfCPU, su+ss)
		run.sliceRSS = append(run.sliceRSS, float64(d1.RSSKB)/1024)
		run.refP50 = append(run.refP50, (prev+next)/2)
		prev = next
	}

	if run.daemon1, err = readProc(d.pid); err != nil {
		return err
	}
	ctxsw1, err := readCtxSwitches(d.pid)
	if err != nil {
		return err
	}
	run.ctxsw = ctxsw1 - ctxsw0
	steal1, total1, err := readSteal()
	if err != nil {
		return err
	}
	run.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	if run.atEnd, err = d.stats(ctl); err != nil {
		return err
	}
	if run.after, err = d.drained(ctl); err != nil {
		return err
	}
	run.origin = o.counts().sub(o0)
	return nil
}

// checkAccounting holds the daemon to its own books once load has
// stopped and nothing is in flight. A violation fails the run: numbers
// from a daemon that miscounts are not worth comparing.
func checkAccounting(st prefetcher.Stats, keysSent int64, served originCounts) error {
	if st.Requests != st.Hits+st.Misses {
		return fmt.Errorf("accounting: Requests %d != Hits %d + Misses %d", st.Requests, st.Hits, st.Misses)
	}
	if st.Requests != keysSent {
		return fmt.Errorf("accounting: daemon counted %d requests, clients sent %d keys", st.Requests, keysSent)
	}
	var fetched, fetchErrors int64
	for _, b := range st.Backends {
		fetched += b.Demand + b.Speculative
		fetchErrors += b.Errors
	}
	if fetchErrors == 0 && served.Items != fetched {
		return fmt.Errorf("accounting: origin served %d objects, fabric counted %d demand + speculative fetches", served.Items, fetched)
	}
	return nil
}

// probeCount is the number of requests each connection sends for each
// of the daemon's fixed-path medians.
const probeCount = 1000

// probe times /healthz, HEAD and /stats on the otherwise idle daemon,
// and the same clients against the bench origin alone (the floor: client,
// loopback and a handler that only writes the body).
func (run *daemonRun) probe(sp spec, cfg runConfig, d *daemon) error {
	var err error
	if run.healthz, err = probeLatency(d.addr, http.MethodGet, "/healthz", cfg.conns, probeCount); err != nil {
		return err
	}
	// The probe key was fetched at readiness; one untimed HEAD brings it
	// back if the window evicted it, so the timed ones are hits.
	headTarget := string(objPath(nil, probeKey))
	if _, err = probeLatency(d.addr, http.MethodHead, headTarget, 1, 1); err != nil {
		return err
	}
	if run.head, err = probeLatency(d.addr, http.MethodHead, headTarget, cfg.conns, probeCount); err != nil {
		return err
	}
	if run.stats, err = probeLatency(d.addr, http.MethodGet, "/stats", cfg.conns, probeCount); err != nil {
		return err
	}
	floor, err := startOrigin(sp.size, nil)
	if err != nil {
		return err
	}
	defer floor.stop()
	fl, err := runLoad(strings.TrimPrefix(floor.url, "http://"), sp, &sharedStream{s: sp.newStream(cfg.seed)}, cfg.conns, 0, time.Second)
	if err != nil {
		return err
	}
	if fl.failed > 0 {
		return fmt.Errorf("%s: floor run: %w", sp.name, fl.firstErr)
	}
	run.floorP50 = p50(fl.samples)
	return nil
}

// completed is the number of requests that were answered and verified:
// every one attempted, since a window with a failure is never reported.
func (run *daemonRun) completed() float64 { return float64(run.load.attempted) }

func cpuMicros(a, b procSample) (user, sys float64) {
	const tick = 1e6 / userHZ
	return float64(b.UserTicks-a.UserTicks) * tick, float64(b.SysTicks-a.SysTicks) * tick
}

// The sandboxes this runs on speed up and slow down by tens of percent,
// over seconds and over hours, all code alike. Every slice is therefore
// bracketed by two bursts of the reference exchange, and a slice's times
// are reported as they would have read at the reference speed: divided
// by the mean of its two bursts' median latency over refNominalP50. The
// values as measured are kept under loadgen.* and in the report's
// per-slice series.

// atReferenceSpeed scales times to the reference speed, each by the
// reference latency measured around it.
func atReferenceSpeed(times, ref []float64) []float64 {
	out := make([]float64, 0, len(times))
	for i, v := range times {
		if i < len(ref) && ref[i] > 0 {
			out = append(out, v*refNominalP50/ref[i])
		}
	}
	return out
}

// speed is the window's overall slowdown against the reference speed.
func (run *daemonRun) speed() float64 {
	if len(run.refP50) == 0 {
		return 1
	}
	return median(run.refP50) / refNominalP50
}

// endToEnd computes the gated metrics from a run. The times are medians
// — across slices, or across boots — at the reference speed.
func (run *daemonRun) endToEnd() values {
	m := values{}
	dReq := float64(run.after.Requests - run.before.Requests)
	dHits := float64(run.after.Hits - run.before.Hits)
	m.set("latency_p50_us", median(atReferenceSpeed(run.sliceP50, run.refP50)))
	m.set("cpu_us_per_req", median(atReferenceSpeed(run.sliceCPU, run.refP50)))
	m.set("miss_ratio", 1-ratio(dHits, dReq))
	m.set("origin_bytes_per_client_byte", ratio(float64(run.origin.Bytes), float64(run.load.bytes)))
	m.set("daemon_rss_mb", median(run.sliceRSS))
	m.set("setup_s", median(atReferenceSpeed(run.setupS, run.bootRef)))
	return m
}

// sliceSeries are the per-slice values behind the medians, as measured
// (not speed-corrected), kept in the report so a reader can see the
// noise a median came out of.
func (run *daemonRun) sliceSeries(sliceDur time.Duration) map[string][]float64 {
	rps := make([]float64, len(run.sliceReqs))
	for i, n := range run.sliceReqs {
		rps[i] = n / sliceDur.Seconds()
	}
	return map[string][]float64{"latency_p50_us": run.sliceP50, "throughput_rps": rps,
		"cpu_us_per_req": run.sliceCPU, "rss_mb": run.sliceRSS, "reference_p50_us": run.refP50}
}

// layers computes the per-layer metrics that come from the daemon run:
// /stats deltas, origin counters, /proc and the load generator itself.
// engine.* and fetch.* ratios are per engine request, i.e. per key (a
// batch session is eight); prefetchd.*, origin.* and loadgen.* are per
// client request.
func (run *daemonRun) layers() values {
	m := values{}
	reqs := run.completed()
	a, b := run.before, run.after
	keys := float64(b.Requests - a.Requests)

	// User and system time over the whole window, reference bursts
	// included: the daemon is idle during those.
	user, sys := cpuMicros(run.daemon0, run.daemon1)
	m.set("prefetchd.cpu_user_us_per_req", ratio(user, reqs))
	m.set("prefetchd.cpu_sys_us_per_req", ratio(sys, reqs))
	m.set("prefetchd.ctxsw_per_req", ratio(float64(run.ctxsw), reqs))
	m.set("prefetchd.threads", float64(run.daemon1.Threads))
	m.set("prefetchd.rss_hwm_mb", float64(run.daemon1.HWMKB)/1024)
	if len(run.healthz) > 0 {
		hz := p50(run.healthz)
		m.set("prefetchd.healthz_p50_us", hz)
		m.set("prefetchd.head_p50_us", p50(run.head))
		m.set("prefetchd.stats_p50_us", p50(run.stats))
		m.set("prefetchd.obj_minus_healthz_us", median(run.sliceP50)-hz)
		m.set("loadgen.floor_p50_us", run.floorP50)
	}

	issued := float64(b.PrefetchIssued - a.PrefetchIssued)
	m.set("engine.hit_ratio", ratio(float64(b.Hits-a.Hits), keys))
	m.set("engine.join_ratio", ratio(float64(b.Joins-a.Joins), keys))
	m.set("engine.prefetch_issued_per_req", ratio(issued, keys))
	m.set("engine.prefetch_accuracy", ratio(float64(b.PrefetchUsed-a.PrefetchUsed), issued))
	m.set("engine.prefetch_wasted_per_req", ratio(float64(b.PrefetchWasted-a.PrefetchWasted), keys))
	m.set("engine.prefetch_dropped_per_req", ratio(float64(b.PrefetchDropped-a.PrefetchDropped), keys))
	m.set("engine.prefetch_errors", float64(b.PrefetchErrors-a.PrefetchErrors))
	m.set("engine.threshold", run.atEnd.Threshold)
	m.set("engine.h_prime", run.atEnd.HPrime)
	m.set("engine.lambda_hat_ratio", ratio(run.atEnd.Lambda, keys/run.load.elapsed.Seconds()))
	m.set("engine.nf_hat_ratio", ratio(run.atEnd.NF, ratio(issued, keys)))
	m.set("engine.batched_keys_per_session", ratio(float64(b.BatchedKeys-a.BatchedKeys), float64(b.MultiGets-a.MultiGets)))

	var fa, fb, fe fetch.BackendStats
	if len(a.Backends) > 0 && len(b.Backends) > 0 && len(run.atEnd.Backends) > 0 {
		fa, fb, fe = a.Backends[0], b.Backends[0], run.atEnd.Backends[0]
	}
	m.set("fetch.demand_per_req", ratio(float64(fb.Demand-fa.Demand), keys))
	m.set("fetch.speculative_per_req", ratio(float64(fb.Speculative-fa.Speculative), keys))
	m.set("fetch.spec_batch_items_per_call", ratio(float64(fb.BatchedItems-fa.BatchedItems), float64(fb.BatchCalls-fa.BatchCalls)))
	m.set("fetch.demand_batch_items_per_call", ratio(float64(fb.DemandBatchedItems-fa.DemandBatchedItems), float64(fb.DemandBatchCalls-fa.DemandBatchCalls)))
	m.set("fetch.errors", float64(fb.Errors-fa.Errors))
	m.set("fetch.retries", float64(fb.Retries-fa.Retries))
	m.set("fetch.latency_ewma_us", fe.LatencySeconds*1e6)
	m.set("fetch.rho", fe.Rho)
	m.set("fetch.rho_prime", fe.RhoPrime)

	m.set("origin.requests_per_req", ratio(float64(run.origin.Requests), reqs))
	m.set("origin.bytes_per_req", ratio(float64(run.origin.Bytes), reqs))
	m.set("origin.batch_share", ratio(float64(run.origin.BatchRequests), float64(run.origin.Requests)))
	m.set("origin.handler_p50_us", p50(run.handler))

	all := sortedCopy(run.samples)
	m.set("loadgen.throughput_rps", ratio(reqs, run.load.elapsed.Seconds()))
	m.set("loadgen.latency_mean_us", mean(all))
	for _, t := range []struct {
		name string
		p    float64
	}{{"loadgen.latency_p90_us", 0.90}, {"loadgen.latency_p99_us", 0.99}, {"loadgen.latency_p999_us", 0.999}} {
		if v, ok := tailPercentile(all, t.p); ok {
			m.set(t.name, v)
		}
	}
	m.set("loadgen.samples", float64(len(all)))
	var self float64
	for _, cpu := range run.selfCPU {
		self += cpu
	}
	m.set("loadgen.cpu_us_per_req", ratio(self, reqs))
	m.set("loadgen.speed_factor", run.speed())
	m.set("loadgen.reference_p50_us", median(run.refP50))
	m.set("loadgen.latency_p50_raw_us", median(run.sliceP50))
	m.set("loadgen.cpu_raw_us_per_req", median(run.sliceCPU))
	m.set("loadgen.steal_frac", run.steal)
	m.set("loadgen.slice_spread", spread(run.sliceP50))
	return m
}
