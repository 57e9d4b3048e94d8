// Command benchdiff compares two prefetchbench -json reports (old vs
// new) and flags performance regressions — a benchstat-style gate for
// CI. Runs are matched by mode, shard count and backend count and
// compared on throughput, ns/op and allocs/op.
//
// By default the gate is warn-only: regressions are reported loudly
// (as ::warning:: annotations when running under GitHub Actions) but
// the exit code stays 0, because absolute numbers from different
// machines — a laptop vs a CI runner — are only indicative. Pass
// -strict to turn regressions into a non-zero exit for same-machine
// comparisons. A run present in only one of the two reports is a
// warning too — a gate that matched nothing compared nothing — and so
// is any difference in the conditions the reports were taken under:
// the config block (clients, requests, cache, …) and go_version /
// gomaxprocs / num_cpu, both of which the header prints.
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
	"sort"
)

// report mirrors the subset of prefetchbench's -json document the
// comparison needs.
type report struct {
	Mode       string         `json:"mode"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Config     map[string]any `json:"config"`
	Runs       []run          `json:"runs"`
}

type run struct {
	Shards        int     `json:"shards"`
	BackendCount  int     `json:"backend_count"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Perf          struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"perf"`
}

// key identifies a run within a report for old/new matching.
func (r run) key() string {
	return fmt.Sprintf("shards=%d/backends=%d", r.Shards, r.BackendCount)
}

// conditions flattens what a report records about how it was taken —
// the config block plus the runtime facts — into one comparable map.
func (r *report) conditions() map[string]string {
	c := map[string]string{
		"go_version": r.GoVersion,
		"gomaxprocs": fmt.Sprint(r.GOMAXPROCS),
		"num_cpu":    fmt.Sprint(r.NumCPU),
	}
	for k, v := range r.Config {
		c["config."+k] = fmt.Sprint(v)
	}
	return c
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

// unmatched returns the keys of the runs in report `in` that report
// `against` has no run for.
func unmatched(in, against *report) []string {
	have := make(map[string]bool, len(against.Runs))
	for _, r := range against.Runs {
		have[r.key()] = true
	}
	var keys []string
	for _, r := range in.Runs {
		if !have[r.key()] {
			keys = append(keys, r.key())
		}
	}
	return keys
}

// differing returns, sorted, the condition keys on which the two
// sides disagree; a key only one side records reads as "" on the other.
func differing(oc, nc map[string]string) []string {
	var keys []string
	for k, ov := range oc {
		if nc[k] != ov {
			keys = append(keys, k)
		}
	}
	for k := range nc {
		if _, ok := oc[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// gate prints both sides' conditions and the comparison table to
// stdout, then every regression, every run only one side has and every
// differing condition as a warning (::warning:: annotations on stdout
// when annotate is set, plain lines on stderr otherwise), and returns
// the process exit code: non-zero only under strict.
func gate(stdout, stderr io.Writer, oldR, newR *report, threshold float64, strict, annotate bool) int {
	fmt.Fprintf(stdout, "old: %s GOMAXPROCS=%d NumCPU=%d\n", oldR.GoVersion, oldR.GOMAXPROCS, oldR.NumCPU)
	fmt.Fprintf(stdout, "new: %s GOMAXPROCS=%d NumCPU=%d\n", newR.GoVersion, newR.GOMAXPROCS, newR.NumCPU)
	var warnings []string
	for _, r := range compare(stdout, oldR, newR, threshold) {
		warnings = append(warnings, fmt.Sprintf("benchdiff: %s %s regressed %.1f%% (old %.1f → new %.1f)",
			r.key, r.metric, (r.ratio-1)*100, r.oldVal, r.newVal))
	}
	for _, key := range unmatched(newR, oldR) {
		warnings = append(warnings, fmt.Sprintf("benchdiff: %s has no matching run in the old report: not compared (regenerate the baseline)", key))
	}
	for _, key := range unmatched(oldR, newR) {
		warnings = append(warnings, fmt.Sprintf("benchdiff: %s is in the old report only: not compared (the new report dropped a run)", key))
	}
	oc, nc := oldR.conditions(), newR.conditions()
	for _, key := range differing(oc, nc) {
		warnings = append(warnings, fmt.Sprintf("benchdiff: %s differs (old %q, new %q): the two reports were not taken under the same conditions", key, oc[key], nc[key]))
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
	fmt.Fprintf(stdout, "benchdiff: %d warning(s) — regressions beyond %.0f%%, unmatched runs or differing conditions (warn-only; pass -strict to fail)\n",
		len(warnings), threshold*100)
	return 0
}

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline prefetchbench -json report")
		newPath   = flag.String("new", "", "candidate prefetchbench -json report")
		threshold = flag.Float64("threshold", 0.10, "fractional regression that triggers a warning (0.10 = 10%)")
		strict    = flag.Bool("strict", false, "exit non-zero on regressions, unmatched runs or differing conditions instead of warn-only")
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
