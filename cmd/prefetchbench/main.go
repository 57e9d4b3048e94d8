// Command prefetchbench regenerates the paper's figures and the derived
// validation tables (internal/experiments; -list prints the index),
// sweeps the in-process engine across shard counts (-engine) and
// replays a recorded trace through it (-trace). End-to-end performance
// of the daemon is measured by bench/ against BENCHMARK.json, not here.
//
// Usage:
//
//	prefetchbench -list
//	prefetchbench -run F2              # one experiment, text output
//	prefetchbench -run all -format csv # everything, CSV
//	prefetchbench -run T7 -quick       # reduced simulation sizes
//	prefetchbench -engine -clients 8   # throughput of the public engine
//	prefetchbench -engine -json -o bench.json   # machine-readable results
//	prefetchbench -engine -cpuprofile cpu.pprof -memprofile mem.pprof
//	prefetchbench -trace t.jsonl       # replay a recorded trace through it
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// errUsage is the missing-mode error: main prints the flag summary and
// exits 2 on it, after run's deferred profile writers have finished.
var errUsage = errors.New("-run <id|all> or -list required")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "prefetchbench:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		list   = flag.Bool("list", false, "list experiment ids and exit")
		runID  = flag.String("run", "", "experiment id to run, or 'all'")
		format = flag.String("format", "text", "output format: text, csv, markdown, or plot (figures only)")
		width  = flag.Int("width", 72, "plot width in characters (plot format)")
		height = flag.Int("height", 24, "plot height in characters (plot format)")
		quick  = flag.Bool("quick", false, "shrink simulation sizes (smoke runs)")
		seed   = flag.Uint64("seed", 1, "random seed for simulation-backed experiments")
		out    = flag.String("o", "", "write output to file instead of stdout")

		engine   = flag.Bool("engine", false, "benchmark the public prefetcher.Engine instead of running experiments")
		trace    = flag.String("trace", "", "replay a recorded JSON-lines trace through the public engine (one concurrent client per trace user)")
		clients  = flag.Int("clients", 8, "engine mode: concurrent client goroutines")
		requests = flag.Int("requests", 50000, "engine mode: requests per client")
		ebw      = flag.Float64("b", 1e6, "engine/trace mode: link bandwidth for the adaptive threshold")
		workers  = flag.Int("workers", 8, "engine/trace mode: speculative-fetch worker pool size")
		ecache   = flag.Int("cache", 256, "engine/trace mode: cache capacity (total, split across shards)")
		eitems   = flag.Int("items", 2000, "engine mode: catalog size")
		eshards  = flag.String("shards", "1,8", "engine/trace mode: comma-separated shard counts to sweep")
		asJSON   = flag.Bool("json", false, "engine/trace mode: emit one machine-readable JSON report (honours -o)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()

	if *engine && *trace != "" {
		return fmt.Errorf("-engine and -trace are mutually exclusive")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prefetchbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prefetchbench: -memprofile:", err)
			}
		}()
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		// A failed close is a failed run: a short write surfaced here
		// (disk full) must not leave a truncated report behind an exit
		// code of 0.
		defer func() {
			if err := f.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
		w = f
	}

	if *trace != "" {
		shards, err := parseShardList(*eshards)
		if err != nil {
			return err
		}
		return runTraceBench(w, traceBenchConfig{
			Path:      *trace,
			Bandwidth: *ebw,
			Workers:   *workers,
			CacheCap:  *ecache,
			Shards:    shards,
			JSON:      *asJSON,
		})
	}

	if *engine {
		shards, err := parseShardList(*eshards)
		if err != nil {
			return err
		}
		return runEngineBench(w, engineBenchConfig{
			Clients:   *clients,
			Requests:  *requests,
			Bandwidth: *ebw,
			Workers:   *workers,
			CacheCap:  *ecache,
			Items:     *eitems,
			Seed:      *seed,
			Shards:    shards,
			JSON:      *asJSON,
		})
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *runID == "" {
		return errUsage
	}

	var targets []experiments.Experiment
	if *runID == "all" {
		targets = experiments.All()
	} else {
		e, err := experiments.Get(*runID)
		if err != nil {
			return err
		}
		targets = []experiments.Experiment{e}
	}

	if *format == "plot" {
		for _, e := range targets {
			panels, err := experiments.FigurePanels(e.ID)
			if err != nil {
				return err
			}
			for _, p := range panels {
				fmt.Fprintln(w, experiments.PanelPlot(p, *width, *height))
			}
		}
		return nil
	}

	render, err := renderer(*format)
	if err != nil {
		return err
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	for _, e := range targets {
		fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Title)
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, tb := range tables {
			fmt.Fprintln(w, render(tb))
		}
	}
	return nil
}

func renderer(format string) (func(*stats.Table) string, error) {
	switch format {
	case "text":
		return (*stats.Table).Text, nil
	case "csv":
		return (*stats.Table).CSV, nil
	case "markdown":
		return (*stats.Table).Markdown, nil
	default:
		return nil, fmt.Errorf("prefetchbench: unknown format %q (want text, csv or markdown)", format)
	}
}
