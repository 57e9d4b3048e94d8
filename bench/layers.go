package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/prefetch"
	"repro/internal/slab"
	"repro/prefetcher"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// The isolated replays time one layer's public functions alone, fed the
// ids the workloads generate. Calls are timed in batches (a clock read
// costs about what the cheapest of these calls does) and the median
// batch is reported per call.
const (
	layerBatches  = 21
	layerBatchLen = 1000
)

// perCall runs layerBatches batches of layerBatchLen calls of f and
// returns the median batch's time per call in ns. f receives the call's
// index over the whole run.
func perCall(f func(i int)) float64 {
	per := make([]float64, layerBatches)
	for b := range per {
		start := time.Now()
		for i := b * layerBatchLen; i < (b+1)*layerBatchLen; i++ {
			f(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / layerBatchLen
	}
	return median(per)
}

// nullFetcher answers at once with no payload: what a fetch.Fabric
// costs over it is the fabric's own routing, accounting and estimators.
type nullFetcher struct{}

func (nullFetcher) Fetch(_ context.Context, id fetch.ID) (fetch.Item, error) {
	return fetch.Item{ID: id, Size: 1}, nil
}

// streamIDs returns the first n keys of a workload's stream.
func streamIDs(sp spec, seed uint64, n int) []int64 {
	st := sp.newStream(seed)
	out := make([]int64, 0, n)
	var keys []int64
	for len(out) < n {
		keys = st.next(keys)
		out = append(out, keys...)
	}
	return out[:n]
}

// isolatedLayers times each request-path layer's functions in
// isolation. Nothing here depends on the workload being measured, so a
// suite runs it once.
func isolatedLayers(ctx context.Context, seed uint64) (values, error) {
	m := values{}
	const total = layerBatches * layerBatchLen
	chain, err := findSpec("chain-obj")
	if err != nil {
		return nil, err
	}
	scan, err := findSpec("scan-miss")
	if err != nil {
		return nil, err
	}
	chainIDs := streamIDs(chain, seed, total)
	scanIDs := streamIDs(scan, seed, total)

	// fetch: a one-backend fabric over a fetcher that does nothing.
	fab, err := fetch.New(fetch.Config{Backends: []fetch.Backend{{Name: "null", Fetcher: nullFetcher{}}}})
	if err != nil {
		return nil, err
	}
	var ferr error
	m.set("fetch.fabric_overhead_ns", perCall(func(i int) {
		if _, err := fab.Fetch(ctx, fetch.ID(i)); err != nil {
			ferr = err
		}
	}))
	if cerr := fab.Close(); ferr == nil {
		ferr = cerr
	}
	if ferr != nil {
		return nil, fmt.Errorf("fabric over the null fetcher: %w", ferr)
	}

	// httpfetch: the batch codec over a buffer, 8 records of 1 KiB, and
	// the ids= parser on the same 8 ids.
	ids8 := make([]fetch.ID, 8)
	strs := make([]string, 8)
	for i := range ids8 {
		ids8[i] = fetch.ID(chainIDs[i])
		strs[i] = fmt.Sprint(chainIDs[i])
	}
	idList := strings.Join(strs, ",")
	payload := make([]byte, 1024)
	fillPayload(payload, 7)
	var wire bytes.Buffer
	var cerr error
	m.set("httpfetch.codec_ns_per_item", perCall(func(int) {
		wire.Reset()
		for _, id := range ids8 {
			if err := httpfetch.WriteBatchItem(&wire, id, payload); err != nil {
				cerr = err
			}
		}
		if _, err := httpfetch.ReadBatch(&wire, ids8, httpfetch.DefaultMaxBodyBytes); err != nil {
			cerr = err
		}
	})/8)
	m.set("httpfetch.parseids_ns_per_id", perCall(func(int) {
		if _, err := httpfetch.ParseIDs(idList); err != nil {
			cerr = err
		}
	})/8)
	if cerr != nil {
		return nil, fmt.Errorf("batch codec: %w", cerr)
	}

	// slab: Put into an 8 MiB arena (so rotation is part of the cost, as
	// it is in the daemon) and Get of a recently put key.
	for _, sz := range []struct {
		name string
		n    int
	}{{"1k", 1024}, {"16k", 16384}} {
		st := slab.New(8<<20, 0)
		val := make([]byte, sz.n)
		var dst []byte
		m.set("slab.put_ns_"+sz.name, perCall(func(i int) { st.Put(int64(i), val) }))
		m.set("slab.get_ns_"+sz.name, perCall(func(i int) { dst, _ = st.Get(int64(total-1-i%64), dst[:0]) }))
	}

	// predict: the daemon's predictor through the public contract the
	// engine holds it by.
	for _, p := range []struct {
		name string
		ids  []int64
	}{{"predict.observe_top2_ns", chainIDs}, {"predict.observe_top2_ns_scan", scanIDs}} {
		pred := prefetcher.NewMarkovPredictor()
		top := pred.(prefetcher.TopIntoPredictor)
		var cands []prefetcher.Prediction
		correct := 0
		m.set(p.name, perCall(func(i int) {
			if len(cands) > 0 && int64(cands[0].ID) == p.ids[i] {
				correct++
			}
			pred.Observe(prefetcher.ID(p.ids[i]))
			cands = top.PredictTopInto(cands[:0], 2)
		}))
		if p.name == "predict.observe_top2_ns" {
			m.set("predict.top1_accuracy", float64(correct)/total)
		}
	}

	// prefetch: the controller's per-request fold, one admission
	// decision over two candidates, one link record.
	ctrl := prefetch.NewController(chain.bandwidth, 0)
	m.set("prefetch.record_request_ns", perCall(func(i int) { ctrl.RecordRequest(float64(i)*1e-4, 1024) }))
	policy := prefetch.Threshold{Model: analytic.ModelA{}}
	cands := []predict.Prediction{{Item: 1, Prob: 0.84}, {Item: 2, Prob: 0.13}}
	admitted := 0
	m.set("prefetch.select_ns", perCall(func(int) { admitted += len(policy.Select(cands, ctrl.State(0))) }))
	link := prefetch.NewLink(chain.bandwidth, 0)
	m.set("prefetch.link_record_ns", perCall(func(i int) {
		link.RecordDemand(float64(i) * 1e-4)
		link.RecordDemandSize(1024)
	}))

	// cache: the Section-4 tagged estimator on a hit, and on a miss that
	// admits one entry and evicts another.
	est := cache.NewEstimator()
	for i := 0; i < 512; i++ {
		est.OnRemoteAccess(cache.ID(i), true)
	}
	m.set("cache.estimator_hit_ns", perCall(func(i int) { est.OnHit(cache.ID(i % 512)) }))
	m.set("cache.estimator_miss_ns", perCall(func(i int) {
		est.OnRemoteAccess(cache.ID(512+i), true)
		est.OnEvict(cache.ID(i))
	}))
	return m, nil
}

// wireProbeCount is the number of calls behind each httpfetch median.
const wireProbeCount = 300

// wireProbes times httpfetch.Client.Fetch and an 8-key FetchBatch over
// loopback against a bench origin serving sp's payload size.
func wireProbes(ctx context.Context, sp spec) (values, error) {
	o, err := startOrigin(sp.size, nil)
	if err != nil {
		return nil, err
	}
	defer o.stop()
	client, err := httpfetch.New(httpfetch.Config{BaseURL: o.url, BatchPath: "/batch"})
	if err != nil {
		return nil, err
	}
	single := make([]float64, 0, wireProbeCount)
	batch := make([]float64, 0, wireProbeCount)
	ids := make([]fetch.ID, 8)
	for i := 0; i < wireProbeCount; i++ {
		start := time.Now()
		if _, err := client.Fetch(ctx, fetch.ID(i)); err != nil {
			return nil, fmt.Errorf("wire probe: %w", err)
		}
		single = append(single, float64(time.Since(start).Nanoseconds())/1e3)
		for j := range ids {
			ids[j] = fetch.ID(8*i + j)
		}
		start = time.Now()
		if _, err := client.FetchBatch(ctx, ids); err != nil {
			return nil, fmt.Errorf("wire probe: %w", err)
		}
		batch = append(batch, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m := values{}
	m.set("httpfetch.fetch_p50_us", p50(single))
	m.set("httpfetch.fetchbatch8_p50_us", p50(batch))
	return m, nil
}
