package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 100", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(7, "arrivals")
	b := NewStream(7, "sizes")
	c := NewStream(7, "arrivals")
	if a.Uint64() == b.Uint64() {
		t.Error("streams with different names should differ")
	}
	a2 := NewStream(7, "arrivals")
	_ = c
	first := a2.Uint64()
	a3 := NewStream(7, "arrivals")
	if a3.Uint64() != first {
		t.Error("same (seed,name) should reproduce the same stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(10)
	d := Exponential{Rate: 2}
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exp(2) sample mean = %v, want ~0.5", mean)
	}
	if d.Mean() != 0.5 {
		t.Errorf("exp(2).Mean() = %v, want 0.5", d.Mean())
	}
}

func TestDeterministicDist(t *testing.T) {
	d := Deterministic{Value: 3.5}
	r := New(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 3.5 {
			t.Fatal("deterministic sample changed")
		}
	}
	if d.Mean() != 3.5 {
		t.Error("deterministic mean wrong")
	}
}

func TestUniformDist(t *testing.T) {
	d := Uniform{Low: 2, High: 6}
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", v)
		}
		sum += v
	}
	if math.Abs(sum/n-4) > 0.02 {
		t.Errorf("uniform mean = %v, want ~4", sum/n)
	}
}

func TestParetoMeanMatchesSamples(t *testing.T) {
	d := NewParetoMean(1.0, 2.5)
	r := New(12)
	sum := 0.0
	const n = 500000
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.03 {
		t.Errorf("pareto sample mean = %v, want ~1.0", mean)
	}
	if math.Abs(d.Mean()-1.0) > 1e-12 {
		t.Errorf("pareto analytic mean = %v, want 1.0", d.Mean())
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 0.9}
	if !math.IsInf(d.Mean(), 1) {
		t.Error("Pareto with alpha<=1 should report infinite mean")
	}
}

func TestNewParetoMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewParetoMean with alpha<=1 should panic")
		}
	}()
	NewParetoMean(1, 1)
}

func TestBoundedParetoRangeAndMean(t *testing.T) {
	d := BoundedPareto{L: 0.5, H: 50, Alpha: 1.5}
	r := New(13)
	sum := 0.0
	const n = 400000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 0.5-1e-9 || v > 50+1e-9 {
			t.Fatalf("bounded pareto sample %v out of [0.5,50]", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-d.Mean())/d.Mean() > 0.05 {
		t.Errorf("bounded pareto sample mean %v vs analytic %v", mean, d.Mean())
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	z := NewZipf(100, 0.8)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf probabilities sum to %v", sum)
	}
}

func TestZipfMonotoneProbs(t *testing.T) {
	z := NewZipf(50, 1.2)
	for i := 1; i < z.N(); i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-15 {
			t.Fatalf("zipf prob increased at rank %d", i)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-12 {
			t.Errorf("zipf(s=0) prob %d = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	z := NewZipf(20, 1.0)
	r := New(14)
	counts := make([]int, 20)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i := 0; i < 20; i++ {
		got := float64(counts[i]) / n
		want := z.Prob(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("zipf rank %d freq %v, want %v", i, got, want)
		}
	}
}

func TestZipfOutOfRangeProb(t *testing.T) {
	z := NewZipf(5, 1)
	if z.Prob(-1) != 0 || z.Prob(5) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", float64(hits)/n)
	}
}

func TestEmpirical(t *testing.T) {
	e := NewEmpirical([]float64{1, 2, 7})
	if math.Abs(e.Prob(0)-0.1) > 1e-12 || math.Abs(e.Prob(2)-0.7) > 1e-12 {
		t.Errorf("empirical probs wrong: %v %v %v", e.Prob(0), e.Prob(1), e.Prob(2))
	}
	r := New(18)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[e.Sample(r)]++
	}
	if math.Abs(float64(counts[2])/n-0.7) > 0.01 {
		t.Errorf("empirical sampling off: %v", counts)
	}
}

func TestEmpiricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {-1, 2}, {0, 0}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEmpirical(%v) should panic", ws)
				}
			}()
			NewEmpirical(ws)
		}()
	}
}

func TestEmpiricalOutOfRangeProb(t *testing.T) {
	e := NewEmpirical([]float64{1, 1})
	if e.Prob(-1) != 0 || e.Prob(2) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

// Property: Intn never leaves its range, for any seed and bound.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the empirical CDF is monotone and normalised for any
// positive weight vector.
func TestQuickEmpiricalNormalised(t *testing.T) {
	f := func(ws []uint8) bool {
		if len(ws) == 0 {
			return true
		}
		weights := make([]float64, len(ws))
		sum := 0.0
		for i, w := range ws {
			weights[i] = float64(w) + 1 // strictly positive
			sum += weights[i]
		}
		e := NewEmpirical(weights)
		total := 0.0
		for i := range weights {
			p := e.Prob(i)
			if p < 0 {
				return false
			}
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Zipf CDF search always returns a valid rank.
func TestQuickZipfSampleInRange(t *testing.T) {
	f := func(seed uint64, n uint8, s uint8) bool {
		size := int(n%200) + 1
		z := NewZipf(size, float64(s%30)/10)
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := z.Sample(r)
			if v < 0 || v >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(10000, 0.9)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}

func TestDistStrings(t *testing.T) {
	for _, c := range []struct {
		d    fmt.Stringer
		want string
	}{
		{Deterministic{Value: 3.5}, "det(3.5)"},
		{Exponential{Rate: 2}, "exp(rate=2)"},
		{Uniform{Low: 2, High: 6}, "uniform[2,6)"},
		{Pareto{Xm: 1, Alpha: 2.5}, "pareto(xm=1,α=2.5)"},
		{BoundedPareto{L: 1, H: 100, Alpha: 1.2}, "bpareto[1,100](α=1.2)"},
		{NewZipf(50, 0.8), "zipf(n=50,s=0.8)"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestDistMeansMatchSamples checks each continuous Dist's exact Mean
// against a sample mean, the figure the queueing analysis takes on trust.
func TestDistMeansMatchSamples(t *testing.T) {
	r := New(21)
	for _, d := range []Dist{
		Deterministic{Value: 3.5},
		Exponential{Rate: 2},
		Uniform{Low: 2, High: 6},
		BoundedPareto{L: 1, H: 100, Alpha: 1.5},
		BoundedPareto{L: 1, H: 10, Alpha: 1},
	} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
		if got, want := sum/n, d.Mean(); math.Abs(got-want)/want > 0.02 {
			t.Errorf("%v: sample mean %v, Mean() %v", d, got, want)
		}
	}
}
