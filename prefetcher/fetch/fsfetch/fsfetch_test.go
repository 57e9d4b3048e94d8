package fsfetch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/prefetcher/fetch"
)

// newStore builds a Store over a temp dir pre-populated with objects
// for the given ids under the default "%d" pattern.
func newStore(t *testing.T, cfg Config, ids ...int64) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	for _, id := range ids {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprint(id)), payload(id), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Root = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func payload(id int64) []byte {
	return []byte(fmt.Sprintf("fs-object-%d", id))
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Root: "/definitely/not/a/real/dir"}); err == nil {
		t.Error("missing root accepted")
	}
	file := filepath.Join(t.TempDir(), "f")
	os.WriteFile(file, nil, 0o644)
	if _, err := New(Config{Root: file}); err == nil {
		t.Error("file root accepted")
	}
	dir := t.TempDir()
	for _, bad := range []string{"noverb", "%s", "%d-%d"} {
		if _, err := New(Config{Root: dir, Pattern: bad}); err == nil {
			t.Errorf("pattern %q accepted", bad)
		}
	}
	if _, err := New(Config{Root: dir, MaxFileBytes: -1}); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestFetch(t *testing.T) {
	s, _ := newStore(t, Config{}, 7)
	item, err := s.Fetch(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(7)
	if !bytes.Equal(item.Data.([]byte), want) {
		t.Fatalf("payload %q, want %q", item.Data, want)
	}
	if item.ID != 7 || item.Size != float64(len(want)) {
		t.Fatalf("id/size = %d/%v", item.ID, item.Size)
	}
}

func TestFetchMissing(t *testing.T) {
	s, _ := newStore(t, Config{})
	if _, err := s.Fetch(context.Background(), 99); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestFetchBound(t *testing.T) {
	s, _ := newStore(t, Config{MaxFileBytes: 4}, 1)
	if _, err := s.Fetch(context.Background(), 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestFetchPattern(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "objects"), 0o755)
	os.WriteFile(filepath.Join(dir, "objects", "5.bin"), payload(5), 0o644)
	s, err := New(Config{Root: dir, Pattern: "objects/%d.bin"})
	if err != nil {
		t.Fatal(err)
	}
	item, err := s.Fetch(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Data.([]byte), payload(5)) {
		t.Fatalf("payload %q", item.Data)
	}
}

func TestFetchCancelled(t *testing.T) {
	s, _ := newStore(t, Config{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Fetch(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestFetchBatch(t *testing.T) {
	s, _ := newStore(t, Config{}, 1, 2, 3)
	items, err := s.FetchBatch(context.Background(), []fetch.ID{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []fetch.ID{3, 1, 2}
	for i, it := range items {
		if it.ID != want[i] || !bytes.Equal(it.Data.([]byte), payload(int64(want[i]))) {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
	// One missing id fails the whole batch (fabric degrades per-key).
	if _, err := s.FetchBatch(context.Background(), []fetch.ID{1, 42}); err == nil {
		t.Fatal("missing id did not fail the batch")
	}
}

// The adapter behind a fabric: demand and speculative batch paths over
// real files.
func TestStoreBehindFabric(t *testing.T) {
	s, _ := newStore(t, Config{}, 10, 11, 12)
	f, err := fetch.New(fetch.Config{Backends: []fetch.Backend{
		{Name: "disk", Fetcher: s},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	item, err := f.Fetch(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Data.([]byte), payload(10)) {
		t.Fatalf("payload %q", item.Data)
	}
	items := make([]fetch.Item, 2)
	_, err = f.FetchSpeculativeBatch(context.Background(), 0, []fetch.ID{11, 12}, items, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("%d items, want 2", len(items))
	}
	st := f.Stats(0)
	if st[0].Demand != 1 || st[0].Speculative != 2 || st[0].BatchCalls != 1 {
		t.Fatalf("stats = %+v", st[0])
	}
}

// The lent-buffer forms: files land behind the caller's prefix, in its
// own backing array when there is room, one length per id; every way a
// read is refused — missing, too large, not a regular file, a dead
// context — hands dst and lens back as they came.
func TestFetchInto(t *testing.T) {
	s, dir := newStore(t, Config{MaxFileBytes: 16}, 1, 2, 3)
	os.WriteFile(filepath.Join(dir, "4"), make([]byte, 17), 0o644)
	os.Mkdir(filepath.Join(dir, "5"), 0o755)
	ctx := context.Background()
	dst := append(make([]byte, 0, 64), "head"...)

	out, err := s.FetchInto(ctx, 2, dst)
	if err != nil || string(out) != "head"+string(payload(2)) || &out[0] != &dst[0] {
		t.Fatalf("FetchInto = %q, %v", out, err)
	}
	if out, err = s.FetchInto(ctx, 3, nil); err != nil || !bytes.Equal(out, payload(3)) {
		t.Fatalf("FetchInto(nil) = %q, %v", out, err)
	}
	out, lens, err := s.FetchBatchInto(ctx, []fetch.ID{3, 1}, dst, []int{7})
	if err != nil || string(out) != "head"+string(payload(3))+string(payload(1)) || len(lens) != 3 || lens[1] != len(payload(3)) || lens[2] != len(payload(1)) {
		t.Fatalf("FetchBatchInto = %q, %v, %v", out, lens, err)
	}

	dead, cancel := context.WithCancel(ctx)
	cancel()
	for name, tc := range map[string]struct {
		ctx  context.Context
		id   fetch.ID
		want error
	}{
		"missing":      {ctx, 99, fs.ErrNotExist},
		"too large":    {ctx, 4, ErrTooLarge},
		"not a file":   {ctx, 5, nil},
		"dead context": {dead, 1, context.Canceled},
	} {
		out, err := s.FetchInto(tc.ctx, tc.id, dst)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) || len(out) != 4 || &out[0] != &dst[0] {
			t.Errorf("%s: FetchInto = %d bytes, %v", name, len(out), err)
		}
		// Second of a batch: the first file is already behind dst.
		out, lens, err := s.FetchBatchInto(tc.ctx, []fetch.ID{1, tc.id}, dst, []int{7})
		if err == nil || len(out) != 4 || &out[0] != &dst[0] || len(lens) != 1 || lens[0] != 7 {
			t.Errorf("%s: FetchBatchInto = %d bytes, lens %v, %v", name, len(out), lens, err)
		}
	}

	// Behind a fabric the store's capabilities make it lend.
	f, err := fetch.New(fetch.Config{Backends: []fetch.Backend{{Name: "disk", Fetcher: s}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Lends() {
		t.Fatal("a fabric over an fs store must lend")
	}
	if _, out, err = f.FetchInto(ctx, 1, dst); err != nil || string(out) != "head"+string(payload(1)) {
		t.Fatalf("fabric FetchInto = %q, %v", out, err)
	}
}
