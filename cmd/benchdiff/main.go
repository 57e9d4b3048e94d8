// Command benchdiff compares two prefetchbench -json reports (old vs
// new) and flags performance regressions — a benchstat-style gate for
// CI. Runs are matched by configuration (mode, shard count, backend
// count, baseline flag, and for values-mode reports the payload size
// and slab/boxed split) and compared on throughput, ns/op, allocs/op
// and the GC block (pause total, collection count, live heap objects).
//
// By default the gate is warn-only: regressions are reported loudly
// (as ::warning:: annotations when running under GitHub Actions) but
// the exit code stays 0, because absolute numbers from different
// machines — a laptop vs a CI runner — are only indicative. Pass
// -strict to turn regressions into a non-zero exit for same-machine
// comparisons. A run in the new report with no counterpart in the old
// one is a warning too: a gate that matched nothing compared nothing.
//
// Usage:
//
//	benchdiff -old BENCH_engine.json -new bench.new.json
//	benchdiff -old old.json -new new.json -threshold 0.10 -strict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// report mirrors the subset of prefetchbench's -json document the
// comparison needs.
type report struct {
	Mode   string `json:"mode"`
	Config struct {
		Trace string `json:"trace"`
	} `json:"config"`
	Runs []run `json:"runs"`
}

type run struct {
	Shards        int     `json:"shards"`
	BackendCount  int     `json:"backend_count"`
	Baseline      bool    `json:"baseline"`
	ValueBytes    int     `json:"value_bytes"`
	Slab          bool    `json:"slab"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Perf          struct {
		NsPerOp        float64 `json:"ns_per_op"`
		AllocsPerOp    float64 `json:"allocs_per_op"`
		BytesPerOp     float64 `json:"bytes_per_op"`
		GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
		NumGC          float64 `json:"num_gc"`
		GCCPUFraction  float64 `json:"gc_cpu_fraction"`
		HeapObjects    float64 `json:"heap_objects"`
	} `json:"perf"`
}

// key identifies a run within a report for old/new matching. The
// values-mode fields only appear when set, so engine/trace/session
// report keys are unchanged.
func (r run) key() string {
	k := fmt.Sprintf("shards=%d/backends=%d/baseline=%t", r.Shards, r.BackendCount, r.Baseline)
	if r.ValueBytes > 0 {
		k += fmt.Sprintf("/valuebytes=%d/slab=%t", r.ValueBytes, r.Slab)
	}
	return k
}

func loadReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: report holds no runs", path)
	}
	return &r, nil
}

// regression describes one metric that got worse beyond the threshold.
type regression struct {
	key, metric       string
	oldVal, newVal    float64
	ratio             float64 // new/old for worse-is-higher metrics, old/new for throughput
	betterWhenSmaller bool
}

// compare matches runs by key and reports regressions beyond threshold
// (e.g. 0.10 = 10%) plus a human-readable comparison table.
func compare(w io.Writer, oldR, newR *report, threshold float64) []regression {
	oldRuns := make(map[string]run, len(oldR.Runs))
	for _, r := range oldR.Runs {
		oldRuns[r.key()] = r
	}
	var regs []regression
	fmt.Fprintf(w, "%-36s %14s %14s %7s\n", "run/metric", "old", "new", "worse")
	for _, nr := range newR.Runs {
		or, ok := oldRuns[nr.key()]
		if !ok {
			fmt.Fprintf(w, "%-36s (no matching run in old report)\n", nr.key())
			continue
		}
		type metric struct {
			name              string
			oldVal, newVal    float64
			betterWhenSmaller bool
			// absFloor suppresses the relative gate while the absolute
			// worsening stays below it — allocs/op hovers near zero
			// (process-wide MemStats deltas carry GC/runtime noise), so
			// a relative threshold alone would flag 0.26 → 0.29 while an
			// absolute floor of half an alloc per request only fires on
			// structural regressions.
			absFloor float64
		}
		metrics := []metric{
			{"throughput_rps", or.ThroughputRPS, nr.ThroughputRPS, false, 0},
			{"ns_per_op", or.Perf.NsPerOp, nr.Perf.NsPerOp, true, 0},
			{"allocs_per_op", or.Perf.AllocsPerOp, nr.Perf.AllocsPerOp, true, 0.5},
			// The GC block rides machine load and GOGC pacing much harder
			// than the per-op figures, so each metric carries an absolute
			// floor wide enough to swallow scheduler jitter: only a
			// structural shift — payloads moving back onto the boxed heap,
			// a pause regression visible to the eye — clears it.
			{"gc_pause_total_ms", or.Perf.GCPauseTotalMS, nr.Perf.GCPauseTotalMS, true, 5},
			{"num_gc", or.Perf.NumGC, nr.Perf.NumGC, true, 5},
			{"heap_objects", or.Perf.HeapObjects, nr.Perf.HeapObjects, true, 50000},
		}
		for _, m := range metrics {
			if m.oldVal == 0 && m.newVal == 0 {
				continue
			}
			var delta float64 // fractional change, positive = worse
			if m.betterWhenSmaller {
				if m.oldVal > 0 {
					delta = m.newVal/m.oldVal - 1
				} else if m.newVal > 0 {
					delta = 1 // 0 → nonzero on a worse-when-bigger metric
				}
			} else if m.newVal > 0 {
				delta = m.oldVal/m.newVal - 1
			} else {
				delta = 1
			}
			// delta is normalised so positive always means worse,
			// whichever direction the metric improves in.
			fmt.Fprintf(w, "%-36s %14.1f %14.1f %+6.1f%%\n",
				nr.key()+"/"+m.name, m.oldVal, m.newVal, 100*delta)
			if m.absFloor > 0 && m.newVal-m.oldVal <= m.absFloor {
				continue
			}
			if delta > threshold {
				regs = append(regs, regression{
					key: nr.key(), metric: m.name,
					oldVal: m.oldVal, newVal: m.newVal,
					ratio: 1 + delta, betterWhenSmaller: m.betterWhenSmaller,
				})
			}
		}
	}
	return regs
}

// unmatched returns the keys of newR's runs that oldR has no run for.
func unmatched(oldR, newR *report) []string {
	have := make(map[string]bool, len(oldR.Runs))
	for _, r := range oldR.Runs {
		have[r.key()] = true
	}
	var keys []string
	for _, r := range newR.Runs {
		if !have[r.key()] {
			keys = append(keys, r.key())
		}
	}
	return keys
}

// gate prints the comparison table to stdout, then every regression
// and every unmatched run as a warning (::warning:: annotations on
// stdout when annotate is set, plain lines on stderr otherwise), and
// returns the process exit code: non-zero only under strict.
func gate(stdout, stderr io.Writer, oldR, newR *report, threshold float64, strict, annotate bool) int {
	var warnings []string
	for _, r := range compare(stdout, oldR, newR, threshold) {
		warnings = append(warnings, fmt.Sprintf("benchdiff: %s %s regressed %.1f%% (old %.1f → new %.1f)",
			r.key, r.metric, (r.ratio-1)*100, r.oldVal, r.newVal))
	}
	for _, key := range unmatched(oldR, newR) {
		warnings = append(warnings, fmt.Sprintf("benchdiff: %s has no matching run in the old report: not compared (regenerate the baseline)", key))
	}
	if len(warnings) == 0 {
		fmt.Fprintf(stdout, "benchdiff: no regressions beyond %.0f%%\n", threshold*100)
		return 0
	}
	for _, msg := range warnings {
		if annotate {
			fmt.Fprintf(stdout, "::warning title=bench regression::%s\n", msg)
		} else {
			fmt.Fprintln(stderr, "WARNING: "+msg)
		}
	}
	if strict {
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d warning(s) — regressions beyond %.0f%% or unmatched runs (warn-only; pass -strict to fail)\n",
		len(warnings), threshold*100)
	return 0
}

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline prefetchbench -json report")
		newPath   = flag.String("new", "", "candidate prefetchbench -json report")
		threshold = flag.Float64("threshold", 0.10, "fractional regression that triggers a warning (0.10 = 10%)")
		strict    = flag.Bool("strict", false, "exit non-zero on regressions or unmatched runs instead of warn-only")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	oldR, err := loadReport(*oldPath)
	if err != nil {
		fatal(err)
	}
	newR, err := loadReport(*newPath)
	if err != nil {
		fatal(err)
	}
	if oldR.Mode != newR.Mode {
		fatal(fmt.Errorf("mode mismatch: old %q vs new %q", oldR.Mode, newR.Mode))
	}
	os.Exit(gate(os.Stdout, os.Stderr, oldR, newR, *threshold, *strict, os.Getenv("GITHUB_ACTIONS") == "true"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
