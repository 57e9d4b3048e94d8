package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/prefetcher"
)

// benchReport is the machine-readable (-json) result document for the
// -engine and -trace modes, written as one indented JSON object so CI
// can archive BENCH_*.json artifacts and the perf trajectory can be
// diffed across commits.
type benchReport struct {
	Mode   string      `json:"mode"` // "engine" or "trace"
	Config benchConfig `json:"config"`
	Runs   []runReport `json:"runs"`
}

// benchConfig echoes the invocation parameters that shape the run.
type benchConfig struct {
	Clients    int     `json:"clients,omitempty"`
	Requests   int     `json:"requests_per_client,omitempty"`
	Trace      string  `json:"trace,omitempty"`
	Bandwidth  float64 `json:"bandwidth"`
	Workers    int     `json:"workers"`
	CacheCap   int     `json:"cache_capacity"`
	Items      int     `json:"items,omitempty"`
	Backends   int     `json:"backends,omitempty"`
	Hedge      bool    `json:"hedge,omitempty"`
	Watermark  float64 `json:"idle_watermark,omitempty"`
	Session    int     `json:"session_fanout,omitempty"`
	MMPP       string  `json:"mmpp,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	ValueBytes int     `json:"value_bytes,omitempty"`
	CacheBytes int     `json:"cache_bytes,omitempty"`
}

// perfReport is the per-request cost block: wall time per completed
// request plus the process-wide allocation deltas over the run divided
// by completed requests. The allocation figures include the engine's
// speculative workers — they measure what one request costs the whole
// process, which is the number the zero-allocation work drives down.
// The gc_* block is per run, not per request: pause time and
// collections over the timed section, the process-lifetime GC CPU
// fraction, and the live heap objects after a forced post-run
// collection (the GC's recurring mark load — the figure the
// pointer-free slab store collapses).
type perfReport struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
	NumGC          int64   `json:"num_gc"`
	GCCPUFraction  float64 `json:"gc_cpu_fraction"`
	HeapObjects    int64   `json:"heap_objects"`
}

// runReport is one engine run within the shard/backend sweep.
type runReport struct {
	Shards        int        `json:"shards"`
	BackendCount  int        `json:"backend_count,omitempty"`
	Baseline      bool       `json:"baseline,omitempty"` // single-backend reference run
	ThroughputRPS float64    `json:"throughput_rps"`
	WallMS        float64    `json:"wall_ms"`
	Perf          perfReport `json:"perf"`
	Completed     int        `json:"completed_requests"`
	Requests      int64      `json:"requests"`
	HitRatio      float64    `json:"hit_ratio"`
	Joins         int64      `json:"joins"`
	// Session-mode extras (-session): completed session count, keys per
	// session, and the session wall-latency percentiles. In the session
	// runs Baseline marks the per-key Get loop over the same streams.
	// Values-mode extras (-valuebytes): the payload size and whether
	// this run stored payloads in the pointer-free slab arena (false =
	// the boxed baseline it is diffed against).
	ValueBytes        int             `json:"value_bytes,omitempty"`
	Slab              bool            `json:"slab,omitempty"`
	Sessions          int             `json:"sessions,omitempty"`
	SessionFanout     int             `json:"session_fanout,omitempty"`
	SessionP50MS      float64         `json:"session_p50_ms,omitempty"`
	SessionP95MS      float64         `json:"session_p95_ms,omitempty"`
	MultiGets         int64           `json:"multi_gets,omitempty"`
	BatchedKeys       int64           `json:"batched_keys,omitempty"`
	Lambda            float64         `json:"lambda"`
	MeanSize          float64         `json:"mean_size"`
	HPrime            float64         `json:"h_prime"`
	RhoPrime          float64         `json:"rho_prime"`
	Threshold         float64         `json:"threshold"`
	NF                float64         `json:"n_f"`
	Predictor         string          `json:"predictor"`
	PredictorLockFree bool            `json:"predictor_lock_free"`
	Prefetch          prefetchReport  `json:"prefetch"`
	Backends          []backendReport `json:"backend_stats,omitempty"`
}

type prefetchReport struct {
	Issued   int64   `json:"issued"`
	Used     int64   `json:"used"`
	Wasted   int64   `json:"wasted"`
	Dropped  int64   `json:"dropped"`
	Deferred int64   `json:"deferred"`
	Errors   int64   `json:"errors"`
	Accuracy float64 `json:"accuracy"`
}

type backendReport struct {
	Name            string  `json:"name"`
	Demand          int64   `json:"demand"`
	Speculative     int64   `json:"speculative"`
	Errors          int64   `json:"errors"`
	BatchCalls      int64   `json:"batch_calls"`
	BatchedItems    int64   `json:"batched_items"`
	HedgesLaunched  int64   `json:"hedges_launched"`
	HedgesWon       int64   `json:"hedges_won"`
	Retries         int64   `json:"retries"`
	Deferred        int64   `json:"deferred"`
	Released        int64   `json:"released"`
	DeferredDropped int64   `json:"deferred_dropped"`
	Pending         int     `json:"pending"`
	LatencyMS       float64 `json:"latency_ms"`
	LatencyP95MS    float64 `json:"latency_p95_ms"`
	Bandwidth       float64 `json:"bandwidth"`
	Rho             float64 `json:"rho"`
	RhoPrime        float64 `json:"rho_prime"`
	BreakerState    string  `json:"breaker_state,omitempty"`
	BreakerOpens    int64   `json:"breaker_opens,omitempty"`
}

// newRunReport folds one finished run into the report shape.
func newRunReport(st prefetcher.Stats, completed int, rps float64, elapsed time.Duration, baseline bool, perf perfReport) runReport {
	r := runReport{
		Shards:            st.Shards,
		BackendCount:      len(st.Backends),
		Baseline:          baseline,
		ThroughputRPS:     rps,
		WallMS:            float64(elapsed.Microseconds()) / 1e3,
		Perf:              perf,
		Completed:         completed,
		Requests:          st.Requests,
		HitRatio:          st.HitRatio(),
		Joins:             st.Joins,
		MultiGets:         st.MultiGets,
		BatchedKeys:       st.BatchedKeys,
		Lambda:            st.Lambda,
		MeanSize:          st.MeanSize,
		HPrime:            st.HPrime,
		RhoPrime:          st.RhoPrime,
		Threshold:         st.Threshold,
		NF:                st.NF,
		Predictor:         st.Predictor,
		PredictorLockFree: st.PredictorLockFree,
		Prefetch: prefetchReport{
			Issued:   st.PrefetchIssued,
			Used:     st.PrefetchUsed,
			Wasted:   st.PrefetchWasted,
			Dropped:  st.PrefetchDropped,
			Deferred: st.PrefetchDeferred,
			Errors:   st.PrefetchErrors,
			Accuracy: st.Accuracy(),
		},
	}
	for _, b := range st.Backends {
		r.Backends = append(r.Backends, backendReport{
			Name:            b.Name,
			Demand:          b.Demand,
			Speculative:     b.Speculative,
			Errors:          b.Errors,
			BatchCalls:      b.BatchCalls,
			BatchedItems:    b.BatchedItems,
			HedgesLaunched:  b.HedgesLaunched,
			HedgesWon:       b.HedgesWon,
			Retries:         b.Retries,
			Deferred:        b.Deferred,
			Released:        b.Released,
			DeferredDropped: b.DeferredDropped,
			Pending:         b.Pending,
			LatencyMS:       b.LatencySeconds * 1e3,
			LatencyP95MS:    b.LatencyP95Seconds * 1e3,
			Bandwidth:       b.Bandwidth,
			Rho:             b.Rho,
			RhoPrime:        b.RhoPrime,
			BreakerState:    b.BreakerState,
			BreakerOpens:    b.BreakerOpens,
		})
	}
	return r
}

// emit writes the report as indented JSON.
func (r *benchReport) emit(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("%s mode: encoding -json report: %w", r.Mode, err)
	}
	return nil
}
