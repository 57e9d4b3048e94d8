package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rps, ns, allocs float64) string {
	t.Helper()
	r := report{Mode: "engine"}
	r.Runs = []run{{Shards: 8, ThroughputRPS: rps}}
	r.Runs[0].Perf.NsPerOp = ns
	r.Runs[0].Perf.AllocsPerOp = allocs
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	oldR, err := loadReport(writeReport(t, dir, "old.json", 100000, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Faster and leaner: no regressions.
	newR, err := loadReport(writeReport(t, dir, "better.json", 130000, 800, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if regs := compare(&sb, oldR, newR, 0.10); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}

	// 20% slower on ns/op and throughput: both flagged at a 10% gate.
	worse, err := loadReport(writeReport(t, dir, "worse.json", 80000, 1250, 1))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	regs := compare(&sb, oldR, worse, 0.10)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions (%+v), want 2 (throughput + ns/op)", len(regs), regs)
	}
	for _, r := range regs {
		if r.metric != "throughput_rps" && r.metric != "ns_per_op" {
			t.Fatalf("unexpected regressed metric %q", r.metric)
		}
	}

	// The same 20% drop passes a 25% gate.
	sb.Reset()
	if regs := compare(&sb, oldR, worse, 0.25); len(regs) != 0 {
		t.Fatalf("25%% gate still flagged: %+v", regs)
	}

	// Allocations appearing where there were none is a regression.
	allocd, err := loadReport(writeReport(t, dir, "allocs.json", 100000, 1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	regs = compare(&sb, oldR, allocd, 0.10)
	if len(regs) != 1 || regs[0].metric != "allocs_per_op" {
		t.Fatalf("alloc regression not flagged: %+v", regs)
	}

	// Near-zero allocs/op noise (process-wide MemStats jitter) stays
	// below the absolute floor and must not fire the relative gate.
	noisyOld, err := loadReport(writeReport(t, dir, "noisy-old.json", 100000, 1000, 0.26))
	if err != nil {
		t.Fatal(err)
	}
	noisyNew, err := loadReport(writeReport(t, dir, "noisy-new.json", 100000, 1000, 0.29))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if regs := compare(&sb, noisyOld, noisyNew, 0.10); len(regs) != 0 {
		t.Fatalf("alloc noise below the absolute floor flagged: %+v", regs)
	}
}

func writeValuesReport(t *testing.T, dir, name string, boxedObjs, slabObjs, slabPauseMS float64) string {
	t.Helper()
	r := report{Mode: "values"}
	boxed := run{Shards: 8, ValueBytes: 1024, Slab: false, ThroughputRPS: 100000}
	boxed.Perf.NsPerOp = 1000
	boxed.Perf.HeapObjects = boxedObjs
	boxed.Perf.GCPauseTotalMS = 40
	slab := run{Shards: 8, ValueBytes: 1024, Slab: true, ThroughputRPS: 100000}
	slab.Perf.NsPerOp = 1000
	slab.Perf.HeapObjects = slabObjs
	slab.Perf.GCPauseTotalMS = slabPauseMS
	r.Runs = []run{boxed, slab}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareValuesModeGCMetrics(t *testing.T) {
	dir := t.TempDir()
	oldR, err := loadReport(writeValuesReport(t, dir, "old.json", 66000, 1300, 15))
	if err != nil {
		t.Fatal(err)
	}

	// The slab and boxed runs share shards/backends/baseline; only the
	// values-mode key suffix separates them. Identical reports must
	// match cleanly and flag nothing.
	var sb strings.Builder
	if regs := compare(&sb, oldR, oldR, 0.10); len(regs) != 0 {
		t.Fatalf("self-comparison flagged: %+v", regs)
	}
	if strings.Contains(sb.String(), "no matching run") {
		t.Fatalf("values runs failed to match by key:\n%s", sb.String())
	}

	// Slab run's live heap blowing up past the absolute floor (payloads
	// back on the boxed heap) is the structural regression the gate
	// exists for; the boxed run is unchanged.
	regressed, err := loadReport(writeValuesReport(t, dir, "regressed.json", 66000, 130000, 15))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	regs := compare(&sb, oldR, regressed, 0.10)
	if len(regs) != 1 || regs[0].metric != "heap_objects" {
		t.Fatalf("slab heap_objects regression not flagged: %+v", regs)
	}
	if !strings.Contains(regs[0].key, "slab=true") {
		t.Fatalf("regression attributed to wrong run: %q", regs[0].key)
	}

	// GC pause wobble below the 5 ms absolute floor stays quiet even
	// when the relative change is large.
	wobble, err := loadReport(writeValuesReport(t, dir, "wobble.json", 66000, 1300, 19))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if regs := compare(&sb, oldR, wobble, 0.10); len(regs) != 0 {
		t.Fatalf("pause wobble below the floor flagged: %+v", regs)
	}

	// A pause regression past the floor fires.
	paused, err := loadReport(writeValuesReport(t, dir, "paused.json", 66000, 1300, 45))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	regs = compare(&sb, oldR, paused, 0.10)
	if len(regs) != 1 || regs[0].metric != "gc_pause_total_ms" {
		t.Fatalf("pause regression not flagged: %+v", regs)
	}
}

func TestLoadReportRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(path, []byte(`{"mode":"engine","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Fatal("empty report accepted")
	}
}

// TestGateWarnsOnUnmatchedRun: a new report whose run keys the old one
// lacks (here backend_count 0 → 1) compared nothing, and must say so —
// as a warning, and as a failure under -strict — not "no regressions".
func TestGateWarnsOnUnmatchedRun(t *testing.T) {
	dir := t.TempDir()
	oldR, err := loadReport(writeReport(t, dir, "old.json", 100000, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	newR, err := loadReport(writeReport(t, dir, "new.json", 100000, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	newR.Runs[0].BackendCount = 1

	var out, errOut strings.Builder
	if code := gate(&out, &errOut, oldR, newR, 0.10, false, true); code != 0 {
		t.Fatalf("warn-only gate exited %d", code)
	}
	if !strings.Contains(out.String(), "::warning") || !strings.Contains(out.String(), newR.Runs[0].key()) {
		t.Fatalf("unmatched run not annotated:\n%s", out.String())
	}
	if strings.Contains(out.String(), "no regressions") {
		t.Fatalf("gate that matched nothing reported success:\n%s", out.String())
	}
	out.Reset()
	if code := gate(&out, &errOut, oldR, newR, 0.10, true, false); code == 0 {
		t.Fatal("-strict gate exited 0 on an unmatched run")
	}
	if !strings.Contains(errOut.String(), "WARNING") {
		t.Fatalf("unmatched run not warned on stderr:\n%s", errOut.String())
	}

	// Matching reports still pass cleanly.
	out.Reset()
	if code := gate(&out, &errOut, oldR, oldR, 0.10, true, false); code != 0 || !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("self-comparison: exit %d\n%s", code, out.String())
	}
}
