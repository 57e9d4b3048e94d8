package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRendererSelection(t *testing.T) {
	tb := stats.NewTable("t", "a")
	tb.AddRow("1")
	for _, format := range []string{"text", "csv", "markdown"} {
		render, err := renderer(format)
		if err != nil {
			t.Errorf("renderer(%q): %v", format, err)
			continue
		}
		out := render(tb)
		if !strings.Contains(out, "1") {
			t.Errorf("format %q lost the cell: %q", format, out)
		}
	}
	if _, err := renderer("pdf"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestParseShardList(t *testing.T) {
	got, err := parseShardList(" 1, 4,8 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("parseShardList = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "1,-2"} {
		if _, err := parseShardList(bad); err == nil {
			t.Errorf("parseShardList(%q) should error", bad)
		}
	}
}

// TestTraceBenchFixture replays the checked-in 1k-record trace (the CI
// smoke fixture) through the live engine and checks the full report:
// every record replayed, the Section-4 estimates present, and the
// built-in predictor named.
func TestTraceBenchFixture(t *testing.T) {
	var buf bytes.Buffer
	err := runTraceBench(&buf, traceBenchConfig{
		Path:      "testdata/trace1k.jsonl",
		Bandwidth: 1e6,
		Workers:   4,
		CacheCap:  64,
		Shards:    []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"1000 records, 4 users",
		"replayed         1000/1000",
		"predictor        markov1\n",
		"ĥ′ (Section 4)",
		"prefetches",
		"speedup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace report missing %q:\n%s", want, out)
		}
	}
}

// TestTraceBenchErrors covers the argument validation paths.
func TestTraceBenchErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runTraceBench(&buf, traceBenchConfig{Path: "testdata/nope.jsonl", CacheCap: 64}); err == nil {
		t.Error("missing trace file should error")
	}
	if err := runTraceBench(&buf, traceBenchConfig{Path: "testdata/trace1k.jsonl", CacheCap: 1}); err == nil {
		t.Error("cache too small for SLRU should error")
	}
	err := runTraceBench(&buf, traceBenchConfig{
		Path: "testdata/trace1k.jsonl", Bandwidth: 1e6, Workers: 2,
		CacheCap: 4, Shards: []int{8},
	})
	if err == nil {
		t.Error("cache budget smaller than 2 items per shard should error")
	}
}
