package main

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/workload"
)

// TestGenerateReplayRoundTrip pins the record format end to end: what
// generate writes must read back through the workload trace reader and
// drive a per-user Replay — the exact path `prefetchbench -trace` uses.
func TestGenerateReplayRoundTrip(t *testing.T) {
	const (
		n     = 500
		users = 4
	)
	var buf bytes.Buffer
	count, name, err := generate(genParams{
		N: n, Items: 100, Users: users, Lambda: 25,
		Kind: "markov", ZipfS: 0.8, Fanout: 2, Decay: 0.15, Restart: 0.03,
		Size: 2, Seed: 7,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("wrote %d records, want %d", count, n)
	}
	if name == "" {
		t.Fatal("source name empty")
	}

	records, err := workload.NewTraceReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != n {
		t.Fatalf("read back %d records, want %d", len(records), n)
	}
	last := -1.0
	for i, r := range records {
		if r.Time < last {
			t.Fatalf("record %d: time %v before previous %v", i, r.Time, last)
		}
		last = r.Time
		if r.User != i%users {
			t.Fatalf("record %d: user %d, want round-robin %d", i, r.User, i%users)
		}
		if r.Size != 2 {
			t.Fatalf("record %d: size %v, want the uniform catalog size 2", i, r.Size)
		}
	}

	// Per-user replay partitions the records without loss or reorder.
	total := 0
	for u := 0; u < users; u++ {
		rep, err := workload.NewReplay(records, u, false)
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		total += rep.Len()
		i := u // user u owns records u, u+users, u+2·users, ...
		for !rep.Exhausted() {
			if got, want := rep.Next(), records[i].Item; got != want {
				t.Fatalf("user %d replay diverged at record %d: %v != %v", u, i, got, want)
			}
			i += users
		}
	}
	if total != n {
		t.Fatalf("per-user replays cover %d records, want %d", total, n)
	}

	// The all-users selection replays the full interleaved sequence.
	all, err := workload.NewReplay(records, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != n {
		t.Fatalf("all-user replay holds %d records, want %d", all.Len(), n)
	}
	for i := 0; !all.Exhausted(); i++ {
		if got, want := all.Next(), records[i].Item; got != want {
			t.Fatalf("all-user replay diverged at %d: %v != %v", i, got, want)
		}
	}
}

// TestGenerateUnknownKind rejects bad workload kinds instead of writing
// an empty trace.
func TestGenerateUnknownKind(t *testing.T) {
	if _, _, err := generate(genParams{N: 1, Items: 1, Users: 1, Lambda: 1, Kind: "weird"}, io.Discard); err == nil {
		t.Fatal("unknown kind must error")
	}
}
