// Command bench is the socket-level benchmark of cmd/prefetchd: it
// boots the daemon as a subprocess against an origin it owns, drives it
// closed-loop over keep-alive connections, verifies every reply, and
// reports the end-to-end and per-layer metrics BENCHMARK.json names.
// See README.md for how to run it and how to read the report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == burnFlag {
		burn()
	}
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	aa       bool
	quick    bool
	manifest bool

	// prefetchd is the daemon binary: the one run.sh built next to this
	// program. Not a flag.
	prefetchd string
}

func realMain() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the result as one JSON line (default: the whole suite and a report)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the daemon receives only the requests generated from it")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured window per workload, in one-second slices")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics (with the traced replay)")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced suite twice on the same code and hold the second set to the first by the bounds")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 3 slices, one boot, short replays")
	flag.BoolVar(&o.manifest, "manifest", false, "print the BENCHMARK.json this program implements and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.manifest {
		b, err := manifest()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		return err
	}
	cpu, err := confine()
	if err != nil {
		return err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	o.prefetchd = filepath.Join(filepath.Dir(self), "prefetchd")
	if o.quick {
		o.seconds = 3
		for k, n := range replayCounts {
			replayCounts[k] = n / 10
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	env := readEnv(cpu)
	ctx := context.Background()
	stopSpinner, err := keepAwake()
	if err != nil {
		return err
	}
	defer stopSpinner()

	switch {
	case o.workload != "":
		return runOne(ctx, o)
	case o.aa:
		return runAA(o, env)
	default:
		return runSuite(ctx, o, env)
	}
}

// connections is C, the number of closed-loop keep-alive connections:
// min(nproc, 4), nproc being what the confined process sees.
func connections() int { return min(runtime.NumCPU(), 4) }

// outDir is where report.json, aa.json and the span files go, from the
// root of the checkout, where a run starts.
var outDir = filepath.Join("bench", "out")

func (o options) runConfig(setups int, slices int, probes bool) runConfig {
	if o.quick {
		setups = 1
	}
	return runConfig{prefetchd: o.prefetchd, seed: o.seed, conns: connections(), slices: slices,
		sliceDur: time.Second, setups: setups, probes: probes}
}

// runSeconds is BENCHMARK.json's run_seconds: the window the driver asks
// for, and the default.
const runSeconds = 20

// setupBoots is how many times a run boots and warms the daemon; setup_s
// is their median.
const setupBoots = 9

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runOne is the driver's entry: one workload, one JSON line. Without
// tracing it measures the end-to-end metrics over the whole window;
// with it, the per-layer metrics from a shorter daemon run, the traced
// replay and the isolated replays. Any failed request or check is an
// error: nothing is printed and the exit status is not 0. A result that
// is printed therefore always says correct, with none failed.
func runOne(ctx context.Context, o options) error {
	sp, err := findSpec(o.workload)
	if err != nil {
		return err
	}
	var res result
	if o.trace == 0 {
		run, err := runDaemon(sp, o.runConfig(setupBoots, o.seconds, false))
		if err != nil {
			return err
		}
		res = result{Correct: true, Attempted: run.load.attempted, Metrics: complete(run.endToEnd(), endToEndDefs)}
		printMetrics(os.Stderr, sp.name+": end to end", res.Metrics, endToEndDefs)
		fmt.Fprintf(os.Stderr, "  setup_s per boot, as measured: %.3f\n", run.setupS)
	} else {
		iso, err := isolatedLayers(ctx, o.seed)
		if err != nil {
			return err
		}
		slices := (o.seconds + 1) / 2
		wl, err := measureLayers(ctx, sp, o, o.runConfig(1, slices, true), iso)
		if err != nil {
			return err
		}
		res = result{Correct: true, Attempted: wl.Attempted, Metrics: wl.PerLayer}
		printMetrics(os.Stderr, sp.name+": per layer", res.Metrics, perLayerDefs)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// workloadReport is one workload's part of report.json.
type workloadReport struct {
	Why       string               `json:"why"`
	Attempted int64                `json:"attempted"`
	EndToEnd  metrics              `json:"end_to_end"`
	PerLayer  metrics              `json:"per_layer"`
	SetupRuns []float64            `json:"setup_s_runs"`
	Slices    map[string][]float64 `json:"slices"`
	Spans     []spanSummary        `json:"span_summary,omitempty"`
	SpanFile  string               `json:"span_file,omitempty"`
}

// measureLayers runs sp's daemon window, then the untraced and traced
// in-process replays paced at the rate that window measured, then the
// wire probes, adds the isolated replays' values iso, and writes the
// span file.
func measureLayers(ctx context.Context, sp spec, o options, cfg runConfig, iso values) (*workloadReport, error) {
	run, err := runDaemon(sp, cfg)
	if err != nil {
		return nil, err
	}
	wl := &workloadReport{
		Why: sp.why, Attempted: run.load.attempted,
		EndToEnd: complete(run.endToEnd(), endToEndDefs), SetupRuns: run.setupS, Slices: run.sliceSeries(cfg.sliceDur),
	}
	layers := run.layers()
	period := time.Duration(float64(run.load.elapsed) / run.completed())
	traced, sum, spans, err := tracedLayers(ctx, sp, o.seed, period)
	if err != nil {
		return nil, err
	}
	layers.merge(traced)
	wire, err := wireProbes(ctx, sp)
	if err != nil {
		return nil, err
	}
	layers.merge(wire)
	layers.merge(iso)
	wl.PerLayer = complete(layers, perLayerDefs)
	wl.Spans = sum
	wl.SpanFile = filepath.Join(outDir, "trace-"+sp.name+".json")
	if err := writeSpans(wl.SpanFile, spans); err != nil {
		return nil, err
	}
	return wl, nil
}

// report is bench/out/report.json.
type report struct {
	Env       envBlock                   `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runSuite measures every workload, end to end and per layer, prints
// every metric and writes the report.
func runSuite(ctx context.Context, o options, env envBlock) error {
	rep := report{Env: env, Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadReport{}}
	iso, err := isolatedLayers(ctx, o.seed)
	if err != nil {
		return err
	}
	for _, sp := range specs {
		fmt.Fprintf(os.Stderr, "bench: %s …\n", sp.name)
		wl, err := measureLayers(ctx, sp, o, o.runConfig(setupBoots, o.seconds, true), iso)
		if err != nil {
			return err
		}
		rep.Workloads[sp.name] = wl
		printMetrics(os.Stdout, sp.name+": end to end", wl.EndToEnd, endToEndDefs)
		printMetrics(os.Stdout, sp.name+": per layer", wl.PerLayer, perLayerDefs)
		fmt.Printf("  spans: %s\n", wl.SpanFile)
		for _, s := range wl.Spans {
			fmt.Printf("    %-22s %-5s n=%-6d median %9.0f ns  self %9.0f ns  parentless %d\n",
				s.Name, s.Outcome, s.Count, s.MedianNs, s.SelfNs, s.Parentless)
		}
	}
	path := filepath.Join(outDir, "report.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("report: %s\n", path)
	return nil
}

// runAA measures the untraced suite twice on the same code and holds
// the second set to the first by each metric's bound, as a later
// change would be held to its parent.
func runAA(o options, env envBlock) error {
	var sets [2]map[string]metrics
	for i := range sets {
		sets[i] = map[string]metrics{}
		for _, sp := range specs {
			fmt.Fprintf(os.Stderr, "bench: A/A set %d: %s …\n", i+1, sp.name)
			run, err := runDaemon(sp, o.runConfig(setupBoots, o.seconds, false))
			if err != nil {
				return err
			}
			sets[i][sp.name] = complete(run.endToEnd(), endToEndDefs)
		}
	}
	failed := 0
	fmt.Printf("%-11s %-30s %12s %12s %8s %6s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	for _, sp := range specs {
		for _, d := range endToEndDefs {
			a, b := sets[0][sp.name][d.Name].Value, sets[1][sp.name][d.Name].Value
			w := worse(d, a, b)
			verdict := "pass"
			if w > d.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-11s %-30s %12s %12s %+7.1f%% %5.0f%% %s\n", sp.name, d.Name, formatValue(a), formatValue(b), 100*w, 100*d.Bound, verdict)
		}
	}
	path := filepath.Join(outDir, "aa.json")
	if err := writeJSON(path, map[string]any{"env": env, "seed": o.seed, "seconds": o.seconds, "sets": sets}); err != nil {
		return err
	}
	fmt.Printf("A/A: %s\n", path)
	if failed > 0 {
		return fmt.Errorf("A/A: %d metric(s) moved by more than their bound on identical code", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// envBlock records the conditions a report was measured under.
type envBlock struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	// HostCPUs is how many CPUs the machine has; CPU is the one the run
	// was confined to. GOMAXPROCS is what both Go
	// runtimes — the bench's and the daemon's, which inherits the
	// bench's affinity and environment — derive from what is left.
	HostCPUs   int  `json:"nproc"`
	CPU        int  `json:"confined_to_cpu"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	Conns      int  `json:"conns"`
	Loopback   bool `json:"loopback"`
}

func readEnv(cpu int) envBlock {
	env := envBlock{
		Commit: "unknown", GoVersion: runtime.Version(), Kernel: "unknown",
		CPU: cpu, GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: connections(), Loopback: true,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "cpu") && !strings.HasPrefix(line, "cpu ") {
				env.HostCPUs++
			}
		}
	}
	// Outside a git checkout (the driver's is not one) the commit stays
	// unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// manifest is the BENCHMARK.json these definitions imply.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []def      `json:"end_to_end"`
		PerLayer   []layerDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
	}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return json.MarshalIndent(m, "", "  ")
}

// checkManifest holds the BENCHMARK.json at path to the definitions this
// program reports by. Every run makes the check on its checkout's file:
// this module is outside the repository's own build and tests, so
// nothing else would notice the two drifting apart.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mine, err := manifest()
	if err != nil {
		return err
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(mine, &want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s differs from the definitions in bench/ (bench/run.sh -manifest prints what they imply)", path)
	}
	return nil
}
