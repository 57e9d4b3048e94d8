package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
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

// TestGateWarnsOnUnmatchedRun: a run only one of the two reports has
// compared nothing, and the gate must say so — as a warning, and as a
// failure under -strict — not "no regressions". Both directions: a new
// report whose run key the old one lacks (backend_count 0 → 1), and an
// old report with a run (shards=1) the new one dropped.
func TestGateWarnsOnUnmatchedRun(t *testing.T) {
	dir := t.TempDir()
	load := func(name string) *report {
		r, err := loadReport(writeReport(t, dir, name, 100000, 1000, 1))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := load("base.json")
	rekeyed := load("rekeyed.json")
	rekeyed.Runs[0].BackendCount = 1
	wider := load("wider.json")
	wider.Runs = append(wider.Runs, run{Shards: 1, ThroughputRPS: 100000})

	for _, tc := range []struct {
		name       string
		oldR, newR *report
		wantKey    string
	}{
		{"new-only run", base, rekeyed, rekeyed.Runs[0].key()},
		{"old-only run", wider, base, wider.Runs[1].key()},
	} {
		var out, errOut strings.Builder
		if code := gate(&out, &errOut, tc.oldR, tc.newR, 0.10, false, true); code != 0 {
			t.Fatalf("%s: warn-only gate exited %d", tc.name, code)
		}
		if !strings.Contains(out.String(), "::warning") || !strings.Contains(out.String(), tc.wantKey) {
			t.Fatalf("%s: unmatched run not annotated:\n%s", tc.name, out.String())
		}
		if strings.Contains(out.String(), "no regressions") {
			t.Fatalf("%s: gate that skipped a run reported success:\n%s", tc.name, out.String())
		}
		out.Reset()
		if code := gate(&out, &errOut, tc.oldR, tc.newR, 0.10, true, false); code == 0 {
			t.Fatalf("%s: -strict gate exited 0 on an unmatched run", tc.name)
		}
		if !strings.Contains(errOut.String(), "WARNING") || !strings.Contains(errOut.String(), tc.wantKey) {
			t.Fatalf("%s: unmatched run not warned on stderr:\n%s", tc.name, errOut.String())
		}
	}

	// Matching reports still pass cleanly.
	var out, errOut strings.Builder
	if code := gate(&out, &errOut, base, base, 0.10, true, false); code != 0 || !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("self-comparison: exit %d\n%s", code, out.String())
	}
}

// TestGateWarnsOnDifferingConditions: two reports taken under different
// conditions — another invocation (the config block) or another
// runtime (go_version, gomaxprocs, num_cpu) — are not comparable, and
// the gate names every key that differs.
func TestGateWarnsOnDifferingConditions(t *testing.T) {
	mk := func(goVersion string, procs int, config string) *report {
		t.Helper()
		var r report
		doc := `{"mode":"engine","go_version":"` + goVersion + `","gomaxprocs":` + strconv.Itoa(procs) +
			`,"num_cpu":2,"config":` + config + `,"runs":[{"shards":8,"throughput_rps":100000}]}`
		if err := json.Unmarshal([]byte(doc), &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	const cfg = `{"clients":8,"requests_per_client":50000,"cache_capacity":256}`
	base := mk("go1.24.0", 1, cfg)
	for _, tc := range []struct {
		name string
		newR *report
		want []string // condition keys the warnings must name; none = clean
	}{
		{"same conditions", mk("go1.24.0", 1, cfg), nil},
		{"other invocation", mk("go1.24.0", 1, `{"clients":4,"requests_per_client":50000,"cache_capacity":1024}`),
			[]string{"config.clients", "config.cache_capacity"}},
		{"key on one side only", mk("go1.24.0", 1, `{"clients":8,"requests_per_client":50000,"cache_capacity":256,"trace":"t.jsonl"}`),
			[]string{"config.trace"}},
		{"other runtime", mk("go1.22.1", 2, cfg), []string{"go_version", "gomaxprocs"}},
	} {
		var out, errOut strings.Builder
		code := gate(&out, &errOut, base, tc.newR, 0.10, true, false)
		if !strings.Contains(out.String(), "new: "+tc.newR.GoVersion+" GOMAXPROCS=") {
			t.Errorf("%s: header does not print the new side's conditions:\n%s", tc.name, out.String())
		}
		if len(tc.want) == 0 {
			if code != 0 || errOut.Len() != 0 {
				t.Errorf("%s: exit %d, warnings:\n%s", tc.name, code, errOut.String())
			}
			continue
		}
		if code == 0 {
			t.Errorf("%s: -strict gate exited 0", tc.name)
		}
		for _, key := range tc.want {
			if !strings.Contains(errOut.String(), key+" differs") {
				t.Errorf("%s: no warning names %s:\n%s", tc.name, key, errOut.String())
			}
		}
		if n := strings.Count(errOut.String(), "WARNING"); n != len(tc.want) {
			t.Errorf("%s: %d warnings, want %d:\n%s", tc.name, n, len(tc.want), errOut.String())
		}
	}
}
