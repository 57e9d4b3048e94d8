package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
)

func replayRecords() []Record {
	return []Record{
		{Time: 1, User: 0, Item: 10, Size: 1},
		{Time: 2, User: 1, Item: 20, Size: 1},
		{Time: 3, User: 0, Item: 11, Size: 1},
		{Time: 4, User: 1, Item: 21, Size: 1},
		{Time: 5, User: 0, Item: 12, Size: 1},
	}
}

func TestReplayPerUserFilter(t *testing.T) {
	r, err := NewReplay(replayRecords(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("user 0 has %d records, want 3", r.Len())
	}
	want := []cache.ID{10, 11, 12}
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Errorf("request %d = %d, want %d", i, got, w)
		}
	}
	if !r.Exhausted() {
		t.Error("replay should be exhausted")
	}
}

func TestReplayAllUsers(t *testing.T) {
	r, err := NewReplay(replayRecords(), -1, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 {
		t.Errorf("all-user replay has %d records, want 5", r.Len())
	}
}

func TestReplayLoops(t *testing.T) {
	r, err := NewReplay(replayRecords(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]cache.ID, 6)
	for i := range seq {
		seq[i] = r.Next()
	}
	want := []cache.ID{20, 21, 20, 21, 20, 21}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("looped sequence %v, want %v", seq, want)
		}
	}
	if r.Exhausted() {
		t.Error("looping replay is never exhausted")
	}
}

func TestReplayExhaustionPanics(t *testing.T) {
	r, err := NewReplay(replayRecords(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		r.Next()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted non-looping replay should panic")
		}
	}()
	r.Next()
}

func TestReplayEmptySelection(t *testing.T) {
	if _, err := NewReplay(replayRecords(), 9, false); err == nil {
		t.Error("unknown user should error")
	}
	if _, err := NewReplay(nil, -1, true); err == nil {
		t.Error("empty records should error")
	}
}

func TestReplayFromReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	for _, rec := range replayRecords() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := NewTraceReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(records, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if !strings.Contains(r.Name(), "replay") {
		t.Error("Name should mention replay")
	}
}

func TestReplayFromReaderMalformed(t *testing.T) {
	if _, err := NewTraceReader(strings.NewReader("junk\n")).ReadAll(); err == nil {
		t.Error("malformed trace should error")
	}
}

// A replayed trace reproduces the generating source's cache behaviour:
// record an IRM trace, replay it, and check both streams are identical.
func TestReplayMatchesGeneration(t *testing.T) {
	var buf bytes.Buffer
	srcStream := NewIRM(100, 0.9, rng.NewStream(99, "requests"))
	cat := NewUniformCatalog(100, 1)
	arr := NewArrivals(10, rng.NewStream(99, "arrivals"))
	w := NewTraceWriter(&buf)
	if err := Generate(w, srcStream, arr, cat, 2, 200); err != nil {
		t.Fatal(err)
	}
	recs, err := NewTraceReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplay(recs, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if got := rep.Next(); got != rec.Item {
			t.Fatalf("replay diverged at %d: %d vs %d", i, got, rec.Item)
		}
	}
}

// TestReplayRewind checks that Rewind restarts a replay from its head,
// also once a non-looping replay is exhausted, so one Replay can serve
// every run of a sweep with the same sequence.
func TestReplayRewind(t *testing.T) {
	r, err := NewReplay(replayRecords(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	r.Next()
	r.Rewind()
	if got := r.Next(); got != 10 {
		t.Fatalf("first request after a mid-run Rewind = %d, want 10", got)
	}
	for !r.Exhausted() {
		r.Next()
	}
	r.Rewind()
	if r.Exhausted() {
		t.Fatal("rewound replay still exhausted")
	}
	var seq []cache.ID
	for !r.Exhausted() {
		seq = append(seq, r.Next())
	}
	if want := []cache.ID{10, 11, 12}; len(seq) != len(want) || seq[0] != want[0] || seq[2] != want[2] {
		t.Errorf("second pass %v, want %v", seq, want)
	}
}
