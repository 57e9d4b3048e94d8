package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/prefetcher"
)

// benchReport is the machine-readable (-json) result document for the
// -engine and -trace modes, written as one indented JSON object so CI
// can archive it and cmd/benchdiff can compare it with the checked-in
// BENCH_engine.json. The go_version/gomaxprocs/num_cpu block records
// the conditions the numbers were taken under; benchdiff warns when two
// reports differ in them.
type benchReport struct {
	Mode       string      `json:"mode"` // "engine" or "trace"
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Config     benchConfig `json:"config"`
	Runs       []runReport `json:"runs"`
}

func newBenchReport(mode string, cfg benchConfig) *benchReport {
	return &benchReport{
		Mode:       mode,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Config:     cfg,
	}
}

// benchConfig echoes the invocation parameters that shape the run.
type benchConfig struct {
	Clients   int     `json:"clients,omitempty"`
	Requests  int     `json:"requests_per_client,omitempty"`
	Trace     string  `json:"trace,omitempty"`
	Bandwidth float64 `json:"bandwidth"`
	Workers   int     `json:"workers"`
	CacheCap  int     `json:"cache_capacity"`
	Items     int     `json:"items,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
}

// perfReport is the per-request cost block: wall time per completed
// request plus the process-wide allocation deltas over the run divided
// by completed requests. The allocation figures include the engine's
// speculative workers — they measure what one request costs the whole
// process, which is the number the zero-allocation work drives down.
type perfReport struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// runReport is one engine run within the shard sweep.
type runReport struct {
	Shards        int             `json:"shards"`
	BackendCount  int             `json:"backend_count,omitempty"`
	ThroughputRPS float64         `json:"throughput_rps"`
	WallMS        float64         `json:"wall_ms"`
	Perf          perfReport      `json:"perf"`
	Completed     int             `json:"completed_requests"`
	Requests      int64           `json:"requests"`
	HitRatio      float64         `json:"hit_ratio"`
	Joins         int64           `json:"joins"`
	Lambda        float64         `json:"lambda"`
	MeanSize      float64         `json:"mean_size"`
	HPrime        float64         `json:"h_prime"`
	RhoPrime      float64         `json:"rho_prime"`
	Threshold     float64         `json:"threshold"`
	NF            float64         `json:"n_f"`
	Predictor     string          `json:"predictor"`
	Prefetch      prefetchReport  `json:"prefetch"`
	Backends      []backendReport `json:"backend_stats,omitempty"`
}

type prefetchReport struct {
	Issued   int64   `json:"issued"`
	Used     int64   `json:"used"`
	Wasted   int64   `json:"wasted"`
	Dropped  int64   `json:"dropped"`
	Errors   int64   `json:"errors"`
	Accuracy float64 `json:"accuracy"`
}

// backendReport is the link block of the engine's one backend: traffic
// and the link estimates, whose ρ̂′ is the one admission runs on.
type backendReport struct {
	Name         string  `json:"name"`
	Demand       int64   `json:"demand"`
	Speculative  int64   `json:"speculative"`
	Errors       int64   `json:"errors"`
	LatencyMS    float64 `json:"latency_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	Bandwidth    float64 `json:"bandwidth"`
	Rho          float64 `json:"rho"`
	RhoPrime     float64 `json:"rho_prime"`
}

// newRunReport folds one finished run into the report shape.
func newRunReport(st prefetcher.Stats, completed int, rps float64, elapsed time.Duration, perf perfReport) runReport {
	r := runReport{
		Shards:        st.Shards,
		BackendCount:  len(st.Backends),
		ThroughputRPS: rps,
		WallMS:        float64(elapsed.Microseconds()) / 1e3,
		Perf:          perf,
		Completed:     completed,
		Requests:      st.Requests,
		HitRatio:      st.HitRatio(),
		Joins:         st.Joins,
		Lambda:        st.Lambda,
		MeanSize:      st.MeanSize,
		HPrime:        st.HPrime,
		RhoPrime:      st.RhoPrime,
		Threshold:     st.Threshold,
		NF:            st.NF,
		Predictor:     st.Predictor,
		Prefetch: prefetchReport{
			Issued:   st.PrefetchIssued,
			Used:     st.PrefetchUsed,
			Wasted:   st.PrefetchWasted,
			Dropped:  st.PrefetchDropped,
			Errors:   st.PrefetchErrors,
			Accuracy: st.Accuracy(),
		},
	}
	for _, b := range st.Backends {
		r.Backends = append(r.Backends, backendReport{
			Name:         b.Name,
			Demand:       b.Demand,
			Speculative:  b.Speculative,
			Errors:       b.Errors,
			LatencyMS:    b.LatencySeconds * 1e3,
			LatencyP95MS: b.LatencyP95Seconds * 1e3,
			Bandwidth:    b.Bandwidth,
			Rho:          b.Rho,
			RhoPrime:     b.RhoPrime,
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
