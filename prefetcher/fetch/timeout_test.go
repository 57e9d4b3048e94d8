package fetch

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowBatchFetcher blocks both the single and the batch path until its
// delay elapses or ctx dies.
type slowBatchFetcher struct {
	slowFetcher
}

func (f *slowBatchFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	select {
	case <-time.After(f.delay):
		out := make([]Item, len(ids))
		for i, id := range ids {
			out[i] = Item{ID: id, Size: 1}
		}
		return out, nil
	case <-ctx.Done():
		f.cancelled.Add(1)
		return nil, ctx.Err()
	}
}

// stuckBatchFetcher answers single fetches instantly but wedges every
// batch call until its context dies — the shape of an origin whose
// batch endpoint hangs while its point lookups stay healthy.
type stuckBatchFetcher struct {
	instantFetcher
}

func (f *stuckBatchFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestNegativeBackendTimeoutRejected(t *testing.T) {
	_, err := New(Config{Backends: []Backend{
		{Name: "a", Fetcher: &instantFetcher{size: 1}, DemandTimeout: -time.Second},
	}})
	if err == nil {
		t.Fatal("negative DemandTimeout accepted")
	}
	_, err = New(Config{Backends: []Backend{
		{Name: "a", Fetcher: &instantFetcher{size: 1}, SpeculativeTimeout: -time.Second},
	}})
	if err == nil {
		t.Fatal("negative SpeculativeTimeout accepted")
	}
}

// A demand attempt on a backend with a DemandTimeout that expires must
// read as that attempt's failure: the sequential path fails over to the
// next backend instead of stalling on the slow one.
func TestDemandTimeoutFailsOver(t *testing.T) {
	slow := &slowFetcher{delay: 5 * time.Second}
	fast := &instantFetcher{size: 1}
	// Two idle links with no b yet tie, and a tie keeps the declaration
	// order: the slow backend is tried first.
	f := newTestFabric(t, Config{
		Backends: []Backend{
			{Name: "slow", Fetcher: slow, DemandTimeout: 20 * time.Millisecond},
			{Name: "fast", Fetcher: fast},
		},
	})
	start := time.Now()
	item, err := f.Fetch(context.Background(), 7)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if item.ID != 7 {
		t.Fatalf("item %v, want id 7", item)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("failover took %v; the attempt timeout did not fire", el)
	}
	st := f.Stats(f.nowf())
	if st[0].Errors != 1 {
		t.Fatalf("slow backend errors = %d, want 1 (timed-out attempt)", st[0].Errors)
	}
	if st[1].Demand != 1 || st[1].Retries != 1 {
		t.Fatalf("fast backend demand/retries = %d/%d, want 1/1", st[1].Demand, st[1].Retries)
	}
}

// With a single backend the expired demand budget surfaces to the
// caller as context.DeadlineExceeded — not as a hang.
func TestDemandTimeoutSingleBackend(t *testing.T) {
	slow := &slowFetcher{delay: 5 * time.Second}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "slow", Fetcher: slow, DemandTimeout: 15 * time.Millisecond},
	}})
	start := time.Now()
	_, err := f.Fetch(context.Background(), 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("timed-out fetch returned after %v", el)
	}
}

// The hedged (goroutine) demand path applies the same per-attempt
// budget: the primary's timeout triggers the retry, which lands on the
// healthy backend.
func TestDemandTimeoutHedgedPath(t *testing.T) {
	slow := &slowFetcher{delay: 5 * time.Second}
	fast := &instantFetcher{size: 1}
	f := newTestFabric(t, Config{
		// Routing ties the two idle links and tries the slow one first.
		// No p95 estimate yet, so no hedge: only the attempt budget may
		// unblock the fetch.
		Hedging: &Hedging{MaxAttempts: 2},
		Backends: []Backend{
			{Name: "slow", Fetcher: slow, DemandTimeout: 20 * time.Millisecond},
			{Name: "fast", Fetcher: fast},
		},
	})
	start := time.Now()
	item, err := f.Fetch(context.Background(), 3)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if item.ID != 3 {
		t.Fatalf("item %v, want id 3", item)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("hedged retry took %v; the attempt timeout did not fire", el)
	}
	st := f.Stats(f.nowf())
	if st[0].Errors != 1 {
		t.Fatalf("slow backend errors = %d, want 1", st[0].Errors)
	}
}

// SpeculativeTimeout bounds only the speculative path: the same slow
// backend still serves an unbounded demand fetch.
func TestSpeculativeTimeoutIndependentOfDemand(t *testing.T) {
	slow := &slowFetcher{delay: 40 * time.Millisecond}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "slow", Fetcher: slow, SpeculativeTimeout: 5 * time.Millisecond},
	}})
	if _, err := specBatch(f, context.Background(), 0, []ID{1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("speculative err = %v, want DeadlineExceeded", err)
	}
	if _, err := f.Fetch(context.Background(), 2); err != nil {
		t.Fatalf("demand fetch hit the speculative budget: %v", err)
	}
	st := f.Stats(f.nowf())
	if st[0].Errors != 1 {
		t.Fatalf("errors = %d, want exactly the speculative timeout", st[0].Errors)
	}
}

// The speculative batch path shares the speculative budget: a batch
// that cannot finish inside it fails whole, as speculative batches do.
func TestSpeculativeBatchTimeout(t *testing.T) {
	slow := &slowBatchFetcher{slowFetcher{delay: 5 * time.Second}}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "slow", Fetcher: slow, SpeculativeTimeout: 10 * time.Millisecond},
	}})
	start := time.Now()
	_, err := specBatch(f, context.Background(), 0, []ID{1, 2, 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("timed-out batch returned after %v", el)
	}
}

// A demand batch whose FetchBatch call exhausts the demand budget
// degrades to per-key fallback fetches — each with its own fresh
// budget — so a wedged batch endpoint costs one timeout, not the
// session.
func TestDemandBatchTimeoutFallsBackPerKey(t *testing.T) {
	b := &stuckBatchFetcher{instantFetcher{size: 1}}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "o", Fetcher: b, DemandTimeout: 10 * time.Millisecond},
	}})
	ids := []ID{1, 2, 3}
	out := make([]Item, len(ids))
	errs := make([]error, len(ids))
	f.FetchDemandBatch(context.Background(), 0, ids, out, errs, nil, nil)
	for i := range ids {
		if errs[i] != nil {
			t.Fatalf("key %d: %v (fallback should have served it)", ids[i], errs[i])
		}
		if out[i].ID != ids[i] {
			t.Fatalf("key %d: item %v", ids[i], out[i])
		}
	}
	st := f.Stats(f.nowf())
	if st[0].Errors != 1 {
		t.Fatalf("errors = %d, want 1 (the timed-out batch call)", st[0].Errors)
	}
	if st[0].DemandBatchCalls != 1 {
		t.Fatalf("demand batch calls = %d, want 1", st[0].DemandBatchCalls)
	}
}
