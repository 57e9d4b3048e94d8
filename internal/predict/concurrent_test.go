package predict

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/workload"
)

// concurrentPair names a concurrent model and its sequential reference.
// One row: the bounded Markov table is the one concurrent model the
// engine ships (ROADMAP item 6(d)).
type concurrentPair struct {
	name string
	seq  func() Predictor
	conc func() *ConcurrentMarkov1
}

func concurrentPairs() []concurrentPair {
	return []concurrentPair{
		{"markov1", func() Predictor { return NewMarkov1() }, NewConcurrentMarkov1},
	}
}

// markovStream draws a learnable request stream.
func markovStream(n int, seed uint64) []cache.ID {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 50, Fanout: 3, Restart: 0.1},
		rng.New(seed))
	out := make([]cache.ID, n)
	for i := range out {
		out[i] = wl.Next()
	}
	return out
}

// samePredictions compares two distributions exactly (same items in the
// same deterministic tie order, probabilities equal to rounding).
func samePredictions(t *testing.T, label string, got, want []Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d\n got  %v\n want %v",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Item != want[i].Item || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Fatalf("%s: prediction %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// capSuccessors rewrites stream so that no state is followed by more
// than max distinct ids: a transition that would open one more is
// redirected to the state's first successor. This is the regime in
// which ConcurrentMarkov1's bounded rows are exact.
func capSuccessors(stream []cache.ID, max int) []cache.ID {
	succ := make(map[cache.ID][]cache.ID)
	out := append([]cache.ID(nil), stream...)
	for i := 1; i < len(out); i++ {
		prev := out[i-1]
		switch {
		case slices.Contains(succ[prev], out[i]):
		case len(succ[prev]) < max:
			succ[prev] = append(succ[prev], out[i])
		default:
			out[i] = succ[prev][0]
		}
	}
	return out
}

// TestConcurrentSequentialEquivalence drives the table and its
// sequential reference, Markov1, with the same stream from one
// goroutine, which linearises it identically for both. At several
// checkpoints the table's counts and totals must equal the reference's,
// and its distribution must be the reference's with each count adjusted
// by Good–Turing's rule from the reference's own count-of-counts. The
// stream keeps every state within markovSlots successors — the table's
// exactness contract.
func TestConcurrentSequentialEquivalence(t *testing.T) {
	t.Run("markov1", func(t *testing.T) {
		stream := capSuccessors(markovStream(4000, 31), markovSlots)
		seq, conc := NewMarkov1(), NewConcurrentMarkov1()
		for i, id := range stream {
			seq.Observe(id)
			conc.Observe(id)
			if i%997 == 0 || i == len(stream)-1 {
				sameCounts(t, conc, seq)
				samePredictions(t, "markov1", conc.Predict(), adjustedReference(seq))
			}
		}
	})
}

// sameCounts holds every row of m to seq's count for each successor and
// its total, and m to one row per state seq has counted from.
func sameCounts(t *testing.T, m *ConcurrentMarkov1, seq *Markov1) {
	t.Helper()
	rows := 0
	eachMarkovRow(m, func(r *markovRow) {
		rows++
		if int64(r.total) != seq.totals[r.key] || int(r.n) != len(seq.counts[r.key]) {
			t.Errorf("state %d: total %d over %d successors, reference %d over %d",
				r.key, r.total, r.n, seq.totals[r.key], len(seq.counts[r.key]))
		}
		for i, next := range r.succ[:r.n] {
			if int64(r.cnt[i]) != seq.counts[r.key][next] {
				t.Errorf("state %d → %d: count %d, reference %d", r.key, next, r.cnt[i], seq.counts[r.key][next])
			}
		}
	})
	if rows != len(seq.totals) {
		t.Errorf("%d rows, reference counts from %d states", rows, len(seq.totals))
	}
}

// adjustedReference is seq's distribution for its current state with
// each count r ≤ 5 taken to min(r, (r+1)·N_{r+1}/N_r), N_r being how
// many (state, successor) pairs of seq hold count r; where N_r or
// N_{r+1} is 0 the count stays r.
func adjustedReference(seq *Markov1) []Prediction {
	var n [7]float64
	for _, row := range seq.counts {
		for _, c := range row {
			if c < int64(len(n)) {
				n[c]++
			}
		}
	}
	out := seq.Predict()
	row, total := seq.counts[seq.cur], float64(seq.totals[seq.cur])
	for i := range out {
		if r := row[out[i].Item]; r <= 5 && n[r] > 0 && n[r+1] > 0 {
			out[i].Prob = math.Min(float64(r), float64(r+1)*n[r+1]/n[r]) / total
		}
	}
	sortPredictions(out)
	return out
}

// TestConcurrentPredictTopPrefix checks the TopPredictor contract on
// the concurrent models: PredictTop(k) must equal Predict()[:k] for
// every k, including ties (resolved by ascending id) and k beyond the
// candidate count.
func TestConcurrentPredictTopPrefix(t *testing.T) {
	stream := markovStream(3000, 32)
	for _, pair := range concurrentPairs() {
		t.Run(pair.name, func(t *testing.T) {
			conc := pair.conc()
			if got := conc.PredictTop(3); got != nil {
				t.Fatalf("empty model PredictTop = %v, want nil", got)
			}
			for _, id := range stream {
				conc.Observe(id)
			}
			full := conc.Predict()
			if len(full) == 0 {
				t.Fatal("trained model predicted nothing")
			}
			for k := 0; k <= len(full)+2; k++ {
				got := conc.PredictTop(k)
				want := full
				if k < len(full) {
					want = full[:k]
				}
				if k == 0 {
					want = nil
				}
				if len(got) != len(want) {
					t.Fatalf("PredictTop(%d) len = %d, want %d", k, len(got), len(want))
				}
				for i := range want {
					if got[i].Item != want[i].Item || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
						t.Fatalf("PredictTop(%d)[%d] = %+v, want %+v", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCoupledObservePredictEquivalence: driven sequentially, the
// coupled ObserveAndPredictTop(id, k) must return exactly what
// Observe(id) followed by PredictTop(k) would — the engine's lock-free
// path substitutes the former for the latter, and the substitution must
// be invisible absent concurrency.
func TestCoupledObservePredictEquivalence(t *testing.T) {
	stream := markovStream(3000, 38)
	for _, pair := range concurrentPairs() {
		t.Run(pair.name, func(t *testing.T) {
			coupled := pair.conc()
			split := pair.conc()
			for _, id := range stream {
				got := coupled.ObserveAndPredictTop(id, 4)
				split.Observe(id)
				samePredictions(t, pair.name, got, split.PredictTop(4))
			}
		})
	}
}

// hammer feeds stream to p from `workers` goroutines, interleaving
// observations with predictions so readers overlap writers (the -race
// payload), and returns once all observations landed.
func hammer(p *ConcurrentMarkov1, stream []cache.ID, workers int) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				p.Observe(stream[i])
				if i%37 == 0 {
					_ = p.PredictTop(4)
				}
				if i%113 == 0 {
					_ = p.Predict()
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentObserveUnderRace hammers every concurrent model from
// many goroutines and then checks the quiescent state: the distribution
// must be a valid probability ranking and PredictTop must still be an
// exact prefix of Predict. Under -race this is also the data-race probe
// for the striped table.
func TestConcurrentObserveUnderRace(t *testing.T) {
	stream := markovStream(8000, 33)
	for _, pair := range concurrentPairs() {
		t.Run(pair.name, func(t *testing.T) {
			conc := pair.conc()
			hammer(conc, stream, 8)
			full := conc.Predict()
			if len(full) == 0 {
				t.Fatal("no predictions after concurrent training")
			}
			sum := 0.0
			for i, pr := range full {
				if pr.Prob < 0 || pr.Prob > 1+1e-9 {
					t.Fatalf("probability out of range: %+v", pr)
				}
				if i > 0 && better(pr, full[i-1]) {
					t.Fatalf("predictions not in prediction order: %v", full)
				}
				sum += pr.Prob
			}
			// A Markov row is a normalised distribution.
			if sum > 1+1e-6 {
				t.Fatalf("probabilities sum to %v > 1", sum)
			}
			top := conc.PredictTop(5)
			want := full
			if len(want) > 5 {
				want = want[:5]
			}
			samePredictions(t, "top-after-hammer", top, want)
		})
	}
}

// TestConcurrentMarkov1ChainConservation checks the swap-chain
// invariant that makes cross-shard transitions paper-faithful: however
// the observations interleave, every observation after the first
// extends the global chain exactly once, so — on a 50-state stream,
// which never fills a window and so never has a row replaced — the row
// totals sum to exactly n-1, and within each row the slot counts sum to
// no more than its total (less by what replaced successors took with
// them).
func TestConcurrentMarkov1ChainConservation(t *testing.T) {
	stream := markovStream(20000, 35)
	m := NewConcurrentMarkov1()
	hammer(m, stream, 8)
	checkMarkovTable(t, m)
	var transitions int64
	eachMarkovRow(m, func(r *markovRow) {
		var sum uint32
		for _, c := range r.cnt[:r.n] {
			sum += c
		}
		if sum > r.total {
			t.Fatalf("row %d: slot counts sum to %d, above the total %d", r.key, sum, r.total)
		}
		transitions += int64(r.total)
	})
	if transitions != int64(len(stream)-1) {
		t.Fatalf("chain recorded %d transitions, want %d (one per observation after the first)",
			transitions, len(stream)-1)
	}
}

// BenchmarkConcurrentMarkov1ObservePredictTop times the engine's
// per-request call on a learnable chain, each goroutine with its own
// candidate buffer as the engine's are pooled: B/op reads 0.
func BenchmarkConcurrentMarkov1ObservePredictTop(b *testing.B) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 1000, Fanout: 4}, rng.New(1))
	stream := make([]cache.ID, 1<<16)
	for i := range stream {
		stream[i] = wl.Next()
	}
	m := NewConcurrentMarkov1()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]Prediction, 0, 4)
		i := 0
		for pb.Next() {
			buf = m.ObserveAndPredictTopInto(stream[i&(len(stream)-1)], 4, buf[:0])
			i++
		}
	})
}
