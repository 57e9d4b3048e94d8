package predict

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestMarkov1LearnsDeterministicChain(t *testing.T) {
	m := NewMarkov1()
	// Repeating cycle 1→2→3→1...
	for i := 0; i < 30; i++ {
		m.Observe(cache.ID(i%3 + 1))
	}
	// After observing ...,3 the current state is 3 (i=29 → 29%3+1=3).
	preds := m.Predict()
	if len(preds) != 1 || preds[0].Item != 1 || preds[0].Prob != 1 {
		t.Errorf("predictions after cycle = %+v, want [{1 1}]", preds)
	}
}

func TestMarkov1Probabilities(t *testing.T) {
	m := NewMarkov1()
	// From state 5: go to 6 three times, to 7 once.
	seq := []cache.ID{5, 6, 5, 6, 5, 6, 5, 7, 5}
	for _, id := range seq {
		m.Observe(id)
	}
	preds := m.Predict() // current state 5
	if len(preds) != 2 {
		t.Fatalf("got %d predictions, want 2", len(preds))
	}
	if preds[0].Item != 6 || math.Abs(preds[0].Prob-0.75) > 1e-12 {
		t.Errorf("top prediction = %+v, want {6 0.75}", preds[0])
	}
	if preds[1].Item != 7 || math.Abs(preds[1].Prob-0.25) > 1e-12 {
		t.Errorf("second prediction = %+v, want {7 0.25}", preds[1])
	}
}

func TestMarkov1EmptyAndUnseen(t *testing.T) {
	m := NewMarkov1()
	if m.Predict() != nil {
		t.Error("untrained model should predict nothing")
	}
	m.Observe(1)
	if m.Predict() != nil {
		t.Error("state with no observed successors should predict nothing")
	}
}

func TestPredictionsSorted(t *testing.T) {
	m := NewMarkov1()
	seq := []cache.ID{1, 2, 1, 3, 1, 3, 1, 4, 1}
	for _, id := range seq {
		m.Observe(id)
	}
	preds := m.Predict()
	for i := 1; i < len(preds); i++ {
		if preds[i].Prob > preds[i-1].Prob {
			t.Fatalf("predictions not sorted: %+v", preds)
		}
	}
}

func TestPopularity(t *testing.T) {
	p := NewPopularity(2)
	for _, id := range []cache.ID{9, 9, 9, 8, 8, 7} {
		p.Observe(id)
	}
	preds := p.Predict()
	if len(preds) != 2 {
		t.Fatalf("topK not applied: %d preds", len(preds))
	}
	if preds[0].Item != 9 || math.Abs(preds[0].Prob-0.5) > 1e-12 {
		t.Errorf("top = %+v, want {9 0.5}", preds[0])
	}
	if preds[1].Item != 8 {
		t.Errorf("second = %+v, want item 8", preds[1])
	}
}

func TestPopularityUnlimited(t *testing.T) {
	p := NewPopularity(0)
	p.Observe(1)
	p.Observe(2)
	if len(p.Predict()) != 2 {
		t.Error("topK<=0 should return all items")
	}
	empty := NewPopularity(5)
	if empty.Predict() != nil {
		t.Error("empty popularity should predict nothing")
	}
}

func TestDependencyGraphWindow(t *testing.T) {
	g := NewDependencyGraph(2)
	// Sequence: A B C. With window 2, C follows both A and B.
	g.Observe(1)
	g.Observe(2)
	g.Observe(3)
	// Current item 3; no successors yet.
	if preds := g.Predict(); len(preds) != 0 {
		t.Errorf("expected no predictions, got %+v", preds)
	}
	// Revisit 1: now predictions from 1 should include 2 and 3.
	g.Observe(1)
	preds := g.Predict()
	if len(preds) != 2 {
		t.Fatalf("predictions from state 1 = %+v, want 2 entries", preds)
	}
	// 1 was visited twice; each of 2,3 followed once → p=0.5.
	for _, pr := range preds {
		if math.Abs(pr.Prob-0.5) > 1e-12 {
			t.Errorf("prob = %+v, want 0.5", pr)
		}
	}
}

func TestDependencyGraphSelfLoopExcluded(t *testing.T) {
	g := NewDependencyGraph(3)
	g.Observe(1)
	g.Observe(1)
	g.Observe(1)
	if preds := g.Predict(); len(preds) != 0 {
		t.Errorf("self-loops should not be counted: %+v", preds)
	}
}

func TestDependencyGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window < 1 should panic")
		}
	}()
	NewDependencyGraph(0)
}

func TestPPMDeterministicSequence(t *testing.T) {
	p := NewPPM(2)
	for i := 0; i < 60; i++ {
		p.Observe(cache.ID(i%3 + 1))
	}
	preds := p.Predict()
	if len(preds) == 0 {
		t.Fatal("PPM predicted nothing")
	}
	if preds[0].Item != 1 {
		t.Errorf("top prediction = %+v, want item 1", preds[0])
	}
	if preds[0].Prob < 0.8 {
		t.Errorf("deterministic chain should give high confidence, got %v", preds[0].Prob)
	}
}

func TestPPMUsesHigherOrder(t *testing.T) {
	// Second-order structure invisible to order-1: after (1,2) comes 3,
	// after (4,2) comes 5. Order-1 sees 2→3 and 2→5 equally.
	p1 := NewMarkov1()
	p2 := NewPPM(2)
	for i := 0; i < 50; i++ {
		for _, id := range []cache.ID{1, 2, 3, 4, 2, 5} {
			p1.Observe(id)
			p2.Observe(id)
		}
	}
	// History ends ...4,2,5; feed 1,2 so the next should be 3.
	p1.Observe(1)
	p1.Observe(2)
	p2.Observe(1)
	p2.Observe(2)
	top1 := p1.Predict()[0]
	top2 := p2.Predict()[0]
	if top2.Item != 3 {
		t.Fatalf("PPM top prediction = %+v, want item 3", top2)
	}
	if top2.Prob <= top1.Prob+0.1 {
		t.Errorf("PPM (%.3f) should be decisively more confident than order-1 (%.3f)",
			top2.Prob, top1.Prob)
	}
}

func TestPPMProbsAtMostOne(t *testing.T) {
	p := NewPPM(3)
	src := rng.New(21)
	for i := 0; i < 5000; i++ {
		p.Observe(cache.ID(src.Intn(10)))
	}
	total := 0.0
	for _, pr := range p.Predict() {
		if pr.Prob < 0 || pr.Prob > 1+1e-9 {
			t.Fatalf("probability out of range: %+v", pr)
		}
		total += pr.Prob
	}
	if total > 1+1e-6 {
		t.Errorf("PPM probabilities sum to %v > 1", total)
	}
}

func TestPPMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("order < 1 should panic")
		}
	}()
	NewPPM(0)
}

// The predictors must recover the true transition probabilities of a
// synthetic Markov workload — the property the paper's threshold rule
// needs from its access model.
func TestMarkov1RecoversWorkloadChain(t *testing.T) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 30, Fanout: 3, Restart: 0.1}, rng.New(22))
	m := NewMarkov1()
	var last cache.ID
	for i := 0; i < 300000; i++ {
		id := wl.Next()
		m.Observe(id)
		last = id
	}
	preds := m.Predict()
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	for _, pr := range preds[:min(len(preds), 3)] {
		want := wl.TransitionProb(last, pr.Item)
		if math.Abs(pr.Prob-want) > 0.05 {
			t.Errorf("P(%d→%d) learned %.3f, true %.3f", last, pr.Item, pr.Prob, want)
		}
	}
}

func TestEvaluatePrecisionOnDeterministicChain(t *testing.T) {
	stream := make([]cache.ID, 3000)
	for i := range stream {
		stream[i] = cache.ID(i % 5)
	}
	q := Evaluate(NewMarkov1(), stream, 0.5, 100)
	if q.Precision() < 0.99 {
		t.Errorf("precision on deterministic chain = %v, want ~1", q.Precision())
	}
	if q.Recall() < 0.99 {
		t.Errorf("recall on deterministic chain = %v, want ~1", q.Recall())
	}
	if q.Requests != 2900 {
		t.Errorf("Requests = %d, want 2900", q.Requests)
	}
}

func TestEvaluateThresholdFilters(t *testing.T) {
	// Uniform random stream: no prediction should exceed 0.9.
	src := rng.New(23)
	stream := make([]cache.ID, 5000)
	for i := range stream {
		stream[i] = cache.ID(src.Intn(20))
	}
	q := Evaluate(NewMarkov1(), stream, 0.9, 500)
	if q.Issued > int64(len(stream))/50 {
		t.Errorf("threshold 0.9 on uniform noise issued %d predictions", q.Issued)
	}
}

func TestQualityZeroDivision(t *testing.T) {
	var q Quality
	if q.Precision() != 0 || q.Recall() != 0 {
		t.Error("empty quality should report zeros")
	}
	if q.String() == "" {
		t.Error("String should render")
	}
}

func TestCalibrationBuckets(t *testing.T) {
	c := NewCalibration(10)
	// 100 predictions claiming 0.75, hitting 75 times.
	for i := 0; i < 100; i++ {
		c.Record(0.75, i < 75)
	}
	claimed, empirical, counts := c.Bins()
	bin := 7 // 0.75 falls in [0.7,0.8)
	if counts[bin] != 100 {
		t.Fatalf("bin counts = %v", counts)
	}
	if math.Abs(claimed[bin]-0.75) > 1e-12 || math.Abs(empirical[bin]-0.75) > 1e-12 {
		t.Errorf("claimed %v empirical %v, want 0.75 both", claimed[bin], empirical[bin])
	}
}

func TestCalibrationEdges(t *testing.T) {
	c := NewCalibration(4)
	c.Record(1.0, true)   // lands in top bin, not out of range
	c.Record(-0.1, false) // clamped to bin 0
	_, _, counts := c.Bins()
	if counts[3] != 1 || counts[0] != 1 {
		t.Errorf("edge clamping wrong: %v", counts)
	}
}

func TestCalibrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bins <= 0 should panic")
		}
	}()
	NewCalibration(0)
}

// A well-trained Markov1 on a Markov workload should be approximately
// calibrated: claimed probability ≈ empirical hit rate per bin.
func TestMarkov1CalibrationOnMarkovWorkload(t *testing.T) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 40, Fanout: 3, Restart: 0.1}, rng.New(24))
	stream := make([]cache.ID, 200000)
	for i := range stream {
		stream[i] = wl.Next()
	}
	cal := EvaluateCalibration(NewMarkov1(), stream, 10, 20000)
	claimed, empirical, counts := cal.Bins()
	for i := range counts {
		if counts[i] < 2000 {
			continue
		}
		if math.Abs(claimed[i]-empirical[i]) > 0.06 {
			t.Errorf("bin %d: claimed %.3f vs empirical %.3f (n=%d)",
				i, claimed[i], empirical[i], counts[i])
		}
	}
}

func BenchmarkMarkov1ObservePredict(b *testing.B) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 1000, Fanout: 4}, rng.New(1))
	m := NewMarkov1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(wl.Next())
		_ = m.Predict()
	}
}

func BenchmarkPPMObservePredict(b *testing.B) {
	wl := workload.NewMarkov(workload.MarkovConfig{N: 1000, Fanout: 4}, rng.New(1))
	p := NewPPM(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(wl.Next())
		_ = p.Predict()
	}
}

// TestTopPredictionsMatchesPredict checks topPredictions, the k-best
// buffer the Markov table ranks with, against the full sort: offered a
// row in any order, it must keep the first k entries of Markov1's sorted
// Predict, for every k, including ties resolved by ascending id.
func TestTopPredictionsMatchesPredict(t *testing.T) {
	m := NewMarkov1()
	// Build a row with repeats and probability ties: successors of 0.
	seq := []cache.ID{0, 5, 0, 3, 0, 5, 0, 9, 0, 1, 0, 7, 0, 7, 0, 2, 0}
	for _, id := range seq {
		m.Observe(id)
	}
	full := m.Predict()
	if len(full) == 0 {
		t.Fatal("no predictions")
	}
	rev := slices.Clone(full)
	slices.Reverse(rev)
	for k := 1; k <= len(full)+2; k++ {
		for _, order := range [][]Prediction{full, rev} {
			top := newTopPredictionsOn(nil, k)
			for _, p := range order {
				top.offer(p)
			}
			want := full[:min(k, len(full))]
			if !slices.Equal(top.buf, want) {
				t.Fatalf("k = %d: top %+v, want %+v (full %+v)", k, top.buf, want, full)
			}
		}
	}
}
