package fetch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// intoFetcher serves "<id>;" repeated id%4+1 times through every form
// the fabric probes for. fail names ids it refuses — after scribbling
// past len(dst), as a wire that died mid-body has; lie makes the batch
// form break its contract.
type intoFetcher struct {
	tripCount
	fail func(ID) bool
	lie  func(dst []byte, lens []int) ([]byte, []int)
	into int // FetchInto and FetchBatchInto calls
}

func intoPayload(id ID) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%d;", id)), int(id%4)+1)
}

// appendTo is the one reader: id's payload appended to dst.
func (f *intoFetcher) appendTo(id ID, dst []byte) ([]byte, error) {
	if f.fail != nil && f.fail(id) {
		_ = append(dst, "junk a failed read left behind"...)
		return dst, errors.New("refused")
	}
	return append(dst, intoPayload(id)...), nil
}

func (f *intoFetcher) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	f.trip()
	f.into++
	return f.appendTo(id, dst)
}

func (f *intoFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	b, err := f.appendTo(id, nil)
	if err != nil {
		return Item{}, err
	}
	return Item{ID: id, Size: float64(len(b)), Data: b}, nil
}

func (f *intoFetcher) FetchBatchInto(ctx context.Context, ids []ID, dst []byte, lens []int) ([]byte, []int, error) {
	f.trip()
	f.into++
	out, ls := dst, lens
	for _, id := range ids {
		n := len(out)
		var err error
		if out, err = f.appendTo(id, out); err != nil {
			return dst, lens, err
		}
		ls = append(ls, len(out)-n)
	}
	if f.lie != nil {
		out, ls = f.lie(out, ls)
	}
	return out, ls, nil
}

func (f *intoFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	items := make([]Item, len(ids))
	for i, id := range ids {
		b, err := f.appendTo(id, nil)
		if err != nil {
			return nil, err
		}
		items[i] = Item{ID: id, Size: float64(len(b)), Data: b}
	}
	return items, nil
}

// intoOnly hides the batch forms.
type intoOnly struct{ f *intoFetcher }

func (w intoOnly) tripCounter() *atomic.Int64                     { return w.f.tripCounter() }
func (w intoOnly) Fetch(ctx context.Context, id ID) (Item, error) { return w.f.Fetch(ctx, id) }
func (w intoOnly) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	return w.f.FetchInto(ctx, id, dst)
}

// Lends is decided once, from the probes: every backend needs the
// lent-buffer form of each call it offers, and demand attempts must not
// race.
func TestLendsProbes(t *testing.T) {
	into, plain := &intoFetcher{}, &instantFetcher{size: 1}
	for _, tc := range []struct {
		name     string
		fetchers []Fetcher
		hedging  *Hedging
		want     bool
	}{
		{"every capability", []Fetcher{into}, nil, true},
		{"singles only", []Fetcher{intoOnly{into}}, nil, true},
		{"no capability", []Fetcher{plain}, nil, false},
		{"batch without its lent form", []Fetcher{&batchFetcher{}}, nil, false},
		{"one backend of two lacks it", []Fetcher{into, plain}, nil, false},
		{"two capable backends, sequential failover", []Fetcher{into, intoOnly{into}}, nil, true},
		{"two capable backends, hedged", []Fetcher{into, into}, &Hedging{}, false},
		{"hedging over one backend is sequential", []Fetcher{into}, &Hedging{}, true},
		{"a single attempt cannot race", []Fetcher{into, into}, &Hedging{MaxAttempts: 1}, true},
	} {
		var backends []Backend
		for i, f := range tc.fetchers {
			backends = append(backends, Backend{Name: fmt.Sprint("b", i), Fetcher: f})
		}
		if got := newTestFabric(t, Config{Backends: backends, Hedging: tc.hedging}).Lends(); got != tc.want {
			t.Errorf("%s: Lends() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A lent single fetch appends behind the caller's prefix; a failed
// attempt leaves dst as it went and sequential failover lends the same
// buffer to the next backend.
func TestFetchIntoLendsAcrossFailover(t *testing.T) {
	bad := &intoFetcher{fail: func(ID) bool { return true }}
	good := &intoFetcher{}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "bad", Fetcher: bad, Bandwidth: 1e9}, // rendezvous pins the primary
		{Name: "good", Fetcher: good, Bandwidth: 1e-9},
	}})
	if !f.Lends() {
		t.Fatal("the fabric must lend")
	}
	dst := append(make([]byte, 0, 64), "head"...)
	item, out, err := f.FetchInto(context.Background(), 7, dst)
	if err != nil || string(out) != "head"+string(intoPayload(7)) || &out[0] != &dst[0] {
		t.Fatalf("FetchInto = %q, %v", out, err)
	}
	if item.ID != 7 || item.Size != float64(len(intoPayload(7))) || item.Data != nil {
		t.Fatalf("a lent item carries its id and size alone: %+v", item)
	}
	if bad.into != 1 || good.into != 1 {
		t.Fatalf("want one lent attempt per backend, got %d and %d", bad.into, good.into)
	}
	// Every backend failing hands the buffer back untouched up to its length.
	good.fail = func(ID) bool { return true }
	if _, out, err = f.FetchInto(context.Background(), 8, dst); err == nil || len(out) != 4 || string(out) != "head" {
		t.Fatalf("failed FetchInto returned %q, %v", out, err)
	}
	// Fetch on the same fabric still owns its payload.
	good.fail = nil
	if item, err := f.Fetch(context.Background(), 9); err != nil || !bytes.Equal(item.Data.([]byte), intoPayload(9)) {
		t.Fatalf("Fetch = %+v, %v", item, err)
	}
}

// Lent batches — demand and speculative, batched and key by key — put
// the served payloads back to back in key order with one length each; a
// failed key adds nothing, a failed speculative batch nothing at all.
func TestBatchesLend(t *testing.T) {
	ctx := context.Background()
	ids := []ID{5, 6, 7}
	join := func(ids ...ID) string {
		var b []byte
		for _, id := range ids {
			b = append(b, intoPayload(id)...)
		}
		return string(b)
	}
	for _, tc := range []struct {
		name    string
		fetcher func(*intoFetcher) Fetcher
	}{
		{"batched", func(f *intoFetcher) Fetcher { return f }},
		{"key by key", func(f *intoFetcher) Fetcher { return intoOnly{f} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &intoFetcher{}
			f := newTestFabric(t, Config{Backends: []Backend{{Name: "b", Fetcher: tc.fetcher(src)}}})
			out, errs, lens := make([]Item, 3), make([]error, 3), make([]int, 3)
			dst := []byte("head")

			got := f.FetchDemandBatch(ctx, 0, ids, out, errs, dst, lens)
			if string(got) != "head"+join(ids...) || !slices.Equal(lens, []int{len(join(5)), len(join(6)), len(join(7))}) {
				t.Fatalf("demand batch landed %q with lens %v", got, lens)
			}
			for i, it := range out {
				if errs[i] != nil || it.ID != ids[i] || it.Size != float64(lens[i]) || it.Data != nil {
					t.Fatalf("key %d: item %+v, err %v", ids[i], it, errs[i])
				}
			}

			// One key refused: the batch call fails whole and the per-key
			// fallback serves the rest around it.
			src.fail = func(id ID) bool { return id == 6 }
			got = f.FetchDemandBatch(ctx, 0, ids, out, errs, dst, lens)
			if string(got) != "head"+join(5, 7) || errs[0] != nil || errs[1] == nil || errs[2] != nil || lens[0] != len(join(5)) || lens[1] != 0 || lens[2] != len(join(7)) {
				t.Fatalf("demand batch around a failed key landed %q, lens %v, errs %v", got, lens, errs)
			}

			// Speculative: all or nothing.
			if got, err := f.FetchSpeculativeBatch(ctx, 0, ids, out, dst, lens); err == nil || string(got) != "head" {
				t.Fatalf("failed speculative batch returned %q, %v", got, err)
			}
			src.fail = nil
			got, err := f.FetchSpeculativeBatch(ctx, 0, ids, out, dst, lens)
			if err != nil || string(got) != "head"+join(ids...) || lens[2] != len(join(7)) || out[2].Data != nil {
				t.Fatalf("speculative batch landed %q with lens %v: %v", got, lens, err)
			}

			// With nothing lent the same calls own their payloads.
			if got := f.FetchDemandBatch(ctx, 0, ids, out, errs, dst, nil); string(got) != "head" || !bytes.Equal(out[1].Data.([]byte), intoPayload(6)) {
				t.Fatalf("unlent demand batch returned %q and %+v", got, out[1])
			}
			if src.into == 0 {
				t.Fatal("the lent calls never reached the lent-buffer forms")
			}
		})
	}
}

// A FetchBatchInto reply that breaks its contract — a length missing,
// one negative, lengths that do not add up to what was appended — is a
// failed attempt: speculative batches fail whole, demand batches fall
// back per key, and dst comes back as it went either way.
func TestBatchIntoContractViolations(t *testing.T) {
	ctx := context.Background()
	ids := []ID{1, 2}
	for name, lie := range map[string]func([]byte, []int) ([]byte, []int){
		"a length missing":  func(b []byte, ls []int) ([]byte, []int) { return b, ls[:len(ls)-1] },
		"a length too many": func(b []byte, ls []int) ([]byte, []int) { return b, append(ls, 0) },
		"a negative length": func(b []byte, ls []int) ([]byte, []int) { ls[0], ls[1] = ls[0]+ls[1]+1, -1; return b, ls },
		"bytes to spare":    func(b []byte, ls []int) ([]byte, []int) { return append(b, 'x'), ls },
		"bytes missing":     func(b []byte, ls []int) ([]byte, []int) { return b[:len(b)-1], ls },
	} {
		t.Run(name, func(t *testing.T) {
			src := &intoFetcher{lie: lie}
			f := newTestFabric(t, Config{Backends: []Backend{{Name: "b", Fetcher: src}}})
			out, errs, lens := make([]Item, 2), make([]error, 2), make([]int, 2)
			if got, err := f.FetchSpeculativeBatch(ctx, 0, ids, out, []byte("head"), lens); err == nil || string(got) != "head" {
				t.Fatalf("speculative batch returned %q, %v", got, err)
			}
			got := f.FetchDemandBatch(ctx, 0, ids, out, errs, []byte("head"), lens)
			want := "head" + string(intoPayload(1)) + string(intoPayload(2))
			if string(got) != want || errs[0] != nil || errs[1] != nil || lens[0] != len(intoPayload(1)) || lens[1] != len(intoPayload(2)) {
				t.Fatalf("demand batch fell back to %q, lens %v, errs %v; want %q", got, lens, errs, want)
			}
			if st := f.Stats(0)[0]; st.Errors != 2 {
				t.Fatalf("want both broken replies counted as errors: %+v", st)
			}
		})
	}
}
