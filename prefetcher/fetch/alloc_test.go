package fetch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

var (
	flatPayload = []byte("0123456789abcdef")
	errFlat     = errors.New("flat: refused")
)

// flatFetcher is an allocation-free fake, so the allocations a gate
// counts are the fabric's own: every id is flatPayload, read into the
// caller's buffer (FetchInto) or reported by size alone (Fetch, whose
// Item carries no Data and size 0, which settle floors at 1). fail,
// when set, refuses the calls it reports true for; hold, when set,
// blocks every call until its context ends.
type flatFetcher struct {
	tripCount
	calls atomic.Int64
	fail  func(call int64) bool
	hold  bool
}

func (f *flatFetcher) begin(ctx context.Context) error {
	f.trip()
	n := f.calls.Add(1)
	if f.hold {
		<-ctx.Done()
		return ctx.Err()
	}
	if f.fail != nil && f.fail(n) {
		return errFlat
	}
	return nil
}

func (f *flatFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	if err := f.begin(ctx); err != nil {
		return Item{}, err
	}
	return Item{ID: id}, nil
}

func (f *flatFetcher) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if err := f.begin(ctx); err != nil {
		return dst, err
	}
	return append(dst, flatPayload...), nil
}

// flatBatcher adds the batch forms; FetchBatch, which must return a
// slice of its own, is never called on a fabric that lends.
type flatBatcher struct{ flatFetcher }

func (f *flatBatcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	panic("flatBatcher: FetchBatch on a lending fabric")
}

func (f *flatBatcher) FetchBatchInto(ctx context.Context, ids []ID, dst []byte, lens []int) ([]byte, []int, error) {
	if err := f.begin(ctx); err != nil {
		return dst, lens, err
	}
	for range ids {
		dst, lens = append(dst, flatPayload...), append(lens, len(flatPayload))
	}
	return dst, lens, nil
}

// shrinkingFetcher's FetchInto hands back less than it was lent.
type shrinkingFetcher struct{ flatFetcher }

func (f *shrinkingFetcher) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	f.begin(ctx)
	return dst[:len(dst)-1], nil
}

// TestFabricAllocCeiling holds each arm of the attempt bracket (admit,
// ticket.ctx, one, settle) and of the demand paths around it to the
// allocations it makes today: none, but for a demand fetch over two
// links (routeOrder's slice), the hedged race (its context, result
// channel, closures, goroutines and timer) and a backend's
// DemandTimeout (context.WithTimeout and its timer). Each row is one
// call, repeated; a row's name says the arm it drives, and countsOf, where
// set, checks that it ran on every call.
func TestFabricAllocCeiling(t *testing.T) {
	ctx := context.Background()
	ids := []ID{1, 2}
	out := make([]Item, 2)
	errs := make([]error, 2)
	lens := make([]int, 2)
	buf := make([]byte, 0, 256)
	one := func(b *flatFetcher) []Backend { return []Backend{{Name: "a", Fetcher: b}} }
	for _, tc := range []struct {
		name     string
		cfg      func() Config
		setup    func(*Fabric)
		call     func(*Fabric) error
		ceiling  float64
		wantErr  error
		countsOf func(BackendStats) int64 // must move on every call
	}{{
		name: "owned fetch, no b, size 0",
		cfg:  func() Config { return Config{Backends: one(&flatFetcher{})} },
		call: func(f *Fabric) error { _, err := f.Fetch(ctx, 7); return err },
	}, {
		name: "lent fetch",
		cfg: func() Config {
			return Config{Backends: []Backend{{Name: "a", Fetcher: &flatFetcher{}, Bandwidth: 1e6}}}
		},
		call: func(f *Fabric) error { _, _, err := f.FetchInto(ctx, 7, buf[:0]); return err },
	}, {
		name:     "failed fetch",
		cfg:      func() Config { return Config{Backends: one(&flatFetcher{fail: func(int64) bool { return true }})} },
		call:     func(f *Fabric) error { _, err := f.Fetch(ctx, 7); return err },
		wantErr:  errFlat,
		countsOf: func(s BackendStats) int64 { return s.Errors },
	}, {
		name: "lent buffer shrunk",
		cfg: func() Config {
			return Config{Backends: []Backend{{Name: "a", Fetcher: &shrinkingFetcher{}}}}
		},
		call:     func(f *Fabric) error { _, _, err := f.FetchInto(ctx, 7, buf[:1]); return err },
		wantErr:  errLentShrunk,
		countsOf: func(s BackendStats) int64 { return s.Errors },
	}, {
		name: "retry after a failure",
		cfg: func() Config {
			return Config{
				Backends: one(&flatFetcher{fail: func(n int64) bool { return n%2 == 1 }}),
				Hedging:  &Hedging{MaxAttempts: 2},
			}
		},
		call:     func(f *Fabric) error { _, _, err := f.FetchInto(ctx, 7, buf[:0]); return err },
		countsOf: func(s BackendStats) int64 { return s.Retries },
	}, {
		name: "demand batch",
		cfg: func() Config {
			return Config{Backends: []Backend{{Name: "a", Fetcher: &flatBatcher{}}}}
		},
		call: func(f *Fabric) error {
			f.FetchDemandBatch(ctx, 0, ids, out, errs, buf[:0], lens)
			return errors.Join(errs...)
		},
		countsOf: func(s BackendStats) int64 { return s.DemandBatchCalls },
	}, {
		name: "speculative single",
		cfg: func() Config {
			return Config{Backends: []Backend{{Name: "a", Fetcher: &flatFetcher{}}}}
		},
		call: func(f *Fabric) error {
			_, err := f.FetchSpeculativeBatch(ctx, 0, ids[:1], out, buf[:0], lens)
			return err
		},
		countsOf: func(s BackendStats) int64 { return s.Speculative },
	}, {
		name:    "closed fabric",
		cfg:     func() Config { return Config{Backends: one(&flatFetcher{})} },
		setup:   func(f *Fabric) { f.Close() },
		call:    func(f *Fabric) error { _, err := f.Fetch(ctx, 7); return err },
		wantErr: ErrClosed,
	}, {
		name: "two links, the second of less delay",
		cfg: func() Config {
			return Config{Backends: []Backend{
				{Name: "slow", Fetcher: &flatFetcher{}, Bandwidth: 1},
				{Name: "fast", Fetcher: &flatFetcher{}, Bandwidth: 1e6},
			}}
		},
		call: func(f *Fabric) error {
			if f.Route() != 1 || f.RhoPrime(f.nowf()) < 0 {
				return errors.New("Route did not pick the link of less delay")
			}
			_, _, err := f.FetchInto(ctx, 7, buf[:0])
			return err
		},
		ceiling: 1,
	}, {
		name: "two links, neither with a b",
		cfg: func() Config {
			return Config{Backends: []Backend{{Name: "a", Fetcher: &flatFetcher{}}, {Name: "b", Fetcher: &flatFetcher{}}}}
		},
		call: func(f *Fabric) error {
			if rho := f.RhoPrime(f.nowf()); rho != 0 {
				return errors.New("RhoPrime over links with no b is not 0")
			}
			return nil
		},
	}, {
		name: "hedged race",
		cfg: func() Config {
			return Config{
				Backends: []Backend{
					{Name: "stuck", Fetcher: &flatFetcher{hold: true}, Bandwidth: 1e9},
					{Name: "spare", Fetcher: &flatFetcher{}, Bandwidth: 1},
				},
				Hedging: &Hedging{},
			}
		},
		setup:    func(f *Fabric) { hedgeAfter(f, 0, 100*time.Microsecond) },
		call:     func(f *Fabric) error { _, err := f.Fetch(ctx, 7); return err },
		ceiling:  11,
		countsOf: func(s BackendStats) int64 { return s.HedgesLaunched },
	}, {
		name: "DemandTimeout set",
		cfg: func() Config {
			return Config{Backends: []Backend{{Name: "a", Fetcher: &flatFetcher{}, DemandTimeout: time.Minute}}}
		},
		call:    func(f *Fabric) error { _, _, err := f.FetchInto(ctx, 7, buf[:0]); return err },
		ceiling: 4,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFabric(t, tc.cfg())
			if tc.setup != nil {
				tc.setup(f)
			}
			call := func() {
				if err := tc.call(f); !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			}
			call()
			const runs = 200
			before := f.Stats(0)
			got := testing.AllocsPerRun(runs, call)
			if got > tc.ceiling {
				t.Errorf("%v allocations a call, ceiling %v", got, tc.ceiling)
			}
			if tc.countsOf == nil {
				return
			}
			var moved int64
			for i, s := range f.Stats(0) {
				moved += tc.countsOf(s) - tc.countsOf(before[i])
			}
			if moved < runs {
				t.Errorf("the arm ran %d times in %d calls", moved, runs+1)
			}
		})
	}
}
