package predict

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestLZ78TrieGrowth(t *testing.T) {
	l := NewLZ78()
	if l.Nodes() != 1 {
		t.Fatalf("fresh trie should have 1 node, got %d", l.Nodes())
	}
	// Sequence a b a b: phrases (a)(b)(ab) → 3 new nodes.
	for _, id := range []cache.ID{1, 2, 1, 2} {
		l.Observe(id)
	}
	if l.Nodes() != 4 {
		t.Errorf("trie has %d nodes, want 4", l.Nodes())
	}
}

func TestLZ78PredictsRepeatedPhrase(t *testing.T) {
	l := NewLZ78()
	// Long repetition of the cycle 1 2 3: the trie accumulates phrases
	// of increasing length; prediction from a mid-phrase node should
	// put most mass on the true continuation.
	for i := 0; i < 600; i++ {
		l.Observe(cache.ID(i%3 + 1))
	}
	preds := l.Predict()
	if len(preds) == 0 {
		t.Skip("parser happened to sit at the root (phrase boundary)")
	}
	// Whatever the current node, the top prediction must be one of the
	// cycle's symbols with decent confidence.
	if preds[0].Prob < 0.4 {
		t.Errorf("top confidence %v too low on deterministic cycle", preds[0].Prob)
	}
	if preds[0].Item < 1 || preds[0].Item > 3 {
		t.Errorf("predicted item %d outside the alphabet", preds[0].Item)
	}
}

func TestLZ78ProbabilitiesBounded(t *testing.T) {
	l := NewLZ78()
	src := rng.New(5)
	for i := 0; i < 20000; i++ {
		l.Observe(cache.ID(src.Intn(8)))
		total := 0.0
		if i%100 == 0 {
			for _, p := range l.Predict() {
				if p.Prob <= 0 || p.Prob >= 1 {
					t.Fatalf("probability out of (0,1): %+v", p)
				}
				total += p.Prob
			}
			if total > 1+1e-9 {
				t.Fatalf("probabilities sum to %v > 1", total)
			}
		}
	}
}

func TestLZ78EmptyPredict(t *testing.T) {
	l := NewLZ78()
	if l.Predict() != nil {
		t.Error("fresh LZ78 should predict nothing")
	}
}

// LZ78 must achieve decent precision on a Markov workload — the
// Vitter–Krishnan asymptotic-optimality setting.
func TestLZ78QualityOnMarkovWorkload(t *testing.T) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 50, Fanout: 2, Decay: 0.15, Restart: 0.03}, rng.New(41))
	stream := make([]cache.ID, 150000)
	for i := range stream {
		stream[i] = wl.Next()
	}
	q := Evaluate(NewLZ78(), stream, 0.5, 50000)
	if q.Precision() < 0.6 {
		t.Errorf("LZ78 precision %v too low on learnable workload", q.Precision())
	}
	if q.Issued == 0 {
		t.Error("LZ78 issued no confident predictions")
	}
}

func TestEnsembleObserveFansOut(t *testing.T) {
	m1 := NewMarkov1()
	m2 := NewPopularity(0)
	e := NewEnsemble(m1, m2)
	for _, id := range []cache.ID{1, 2, 1, 2} {
		e.Observe(id)
	}
	if len(m2.Predict()) == 0 {
		t.Error("members did not receive observations")
	}
}

func TestEnsembleAveragesProbabilities(t *testing.T) {
	// Two Markov1 copies trained identically: the uniform ensemble must
	// reproduce their (identical) probabilities exactly.
	a, b := NewMarkov1(), NewMarkov1()
	e := NewEnsemble(a, b)
	seq := []cache.ID{1, 2, 1, 3, 1, 2, 1}
	for _, id := range seq {
		e.Observe(id)
	}
	single := NewMarkov1()
	for _, id := range seq {
		single.Observe(id)
	}
	got, want := e.Predict(), single.Predict()
	if len(got) != len(want) {
		t.Fatalf("prediction counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Item != want[i].Item || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Errorf("prediction %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestEnsemblePanics(t *testing.T) {
	cases := []func(){
		func() { NewEnsemble() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEnsembleName(t *testing.T) {
	e := NewEnsemble(NewMarkov1(), NewLZ78())
	name := e.Name()
	if !strings.Contains(name, "markov1") || !strings.Contains(name, "lz78") {
		t.Errorf("ensemble name %q should list members", name)
	}
}

func BenchmarkLZ78ObservePredict(b *testing.B) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 1000, Fanout: 4}, rng.New(1))
	l := NewLZ78()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(wl.Next())
		_ = l.Predict()
	}
}
