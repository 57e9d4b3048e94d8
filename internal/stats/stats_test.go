package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRunningBasic(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.N() != 5 {
		t.Errorf("N = %d, want 5", r.N())
	}
	if r.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", r.Mean())
	}
	if math.Abs(r.Var()-2.5) > 1e-12 {
		t.Errorf("Var = %v, want 2.5", r.Var())
	}
	if r.Min() != 1 || r.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", r.Min(), r.Max())
	}
	if math.Abs(r.Sum()-15) > 1e-12 {
		t.Errorf("Sum = %v, want 15", r.Sum())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.StdErr() != 0 || r.CI95() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(7)
	if r.Var() != 0 {
		t.Error("variance of one sample should be 0")
	}
	if r.Min() != 7 || r.Max() != 7 {
		t.Error("min/max of single sample wrong")
	}
}

func TestRunningNumericalStability(t *testing.T) {
	// Large offset + small variance: naive sum of squares would lose
	// all precision here.
	var r Running
	base := 1e9
	for i := 0; i < 1000; i++ {
		r.Add(base + float64(i%2)) // values 1e9 and 1e9+1
	}
	if math.Abs(r.Var()-0.25025) > 1e-3 {
		t.Errorf("Var = %v, want ~0.2503", r.Var())
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 0) // empty queue at t=0
	w.Observe(1, 1) // one job from t=1
	w.Observe(3, 2) // two jobs from t=3
	w.Observe(4, 0) // empty from t=4
	// area = 0*1 + 1*2 + 2*1 + 0*1 = 4 over [0,5]
	got := w.Mean(5)
	if math.Abs(got-0.8) > 1e-12 {
		t.Errorf("time average = %v, want 0.8", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.Mean(10) != 0 {
		t.Error("empty time average should be 0")
	}
}

func TestTimeWeightedPanicsOnRegression(t *testing.T) {
	var w TimeWeighted
	w.Observe(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing time should panic")
		}
	}()
	w.Observe(4, 2)
}

func TestBatchMeans(t *testing.T) {
	b := NewBatchMeans(10)
	for i := 0; i < 100; i++ {
		b.Add(float64(i % 10)) // every batch has mean 4.5
	}
	for i := 0; i < 9; i++ {
		b.Add(100) // an incomplete batch counts for nothing yet
	}
	if math.Abs(b.Mean()-4.5) > 1e-12 {
		t.Errorf("Mean = %v, want 4.5", b.Mean())
	}
	if b.CI95() != 0 {
		t.Errorf("identical batches should give zero CI, got %v", b.CI95())
	}
}

func TestBatchMeansPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero batch size should panic")
		}
	}()
	NewBatchMeans(0)
}

func TestQuantilesExact(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	qs := Quantiles(data, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Errorf("quantiles = %v, want [1 3 5]", qs)
	}
}

func TestQuantilesInterpolation(t *testing.T) {
	data := []float64{0, 10}
	q := Quantiles(data, 0.25)[0]
	if math.Abs(q-2.5) > 1e-12 {
		t.Errorf("0.25-quantile = %v, want 2.5", q)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	qs := Quantiles(nil, 0.5, 0.9)
	if len(qs) != 2 || qs[0] != 0 || qs[1] != 0 {
		t.Errorf("empty-data quantiles = %v", qs)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(1.1, 1.0) > 0.1000001 || RelErr(1.1, 1.0) < 0.0999999 {
		t.Errorf("RelErr(1.1,1) = %v", RelErr(1.1, 1.0))
	}
	if RelErr(0.5, 0) != 0.5 {
		t.Errorf("RelErr with zero want = %v", RelErr(0.5, 0))
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("1", "2")
	tb.AddRowValues(3.14159, "x")
	tb.AddNote("n=%d", 2)
	out := tb.Text()
	for _, want := range []string{"demo", "a", "3.14159", "note: n=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 || tb.Cell(0, 1) != "2" {
		t.Error("accessors wrong")
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row should panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("q", "col")
	tb.AddRow(`va"l,ue`)
	out := tb.CSV()
	if !strings.Contains(out, `"va""l,ue"`) {
		t.Errorf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "# q\n") {
		t.Error("CSV should emit title comment")
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("md", "x", "y")
	tb.AddRow("1", "2")
	out := tb.Markdown()
	if !strings.Contains(out, "| x | y |") || !strings.Contains(out, "| 1 | 2 |") {
		t.Errorf("markdown output wrong:\n%s", out)
	}
}

func TestRunningString(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	want := "n=8 mean=5 sd=2.13809 min=2 max=9"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
