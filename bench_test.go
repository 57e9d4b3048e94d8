// Package repro_test hosts the benchmark harness: one testing.B
// benchmark per paper figure and derived table (`go run
// ./cmd/prefetchbench -list` names them). Each benchmark regenerates its experiment from
// scratch, so `go test -bench=. -benchmem` both times the harness and
// re-validates that every artifact still generates without error.
// Key scalar outcomes are attached via b.ReportMetric so bench output
// doubles as a regression record beside the tables `prefetchbench -run`
// prints.
package repro_test

import (
	"strconv"
	"testing"

	"repro/internal/analytic"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// runExperiment executes one experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) []*stats.Table {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		tables, err = e.Run(experiments.Options{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// cell parses a numeric table cell.
func cell(b *testing.B, tb *stats.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tb.Cell(row, col), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tb.Cell(row, col), err)
	}
	return v
}

func BenchmarkFigure1(b *testing.B) {
	tables := runExperiment(b, "F1")
	// Record the b=50 threshold at s̄=1 (h′=0 panel): p_th = 0.6.
	for r := 0; r < tables[0].NumRows(); r++ {
		if tables[0].Cell(r, 0) == "1" {
			b.ReportMetric(cell(b, tables[0], r, 1), "pth@b50,s1")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	tables := runExperiment(b, "F2")
	// Record G(p=0.9, nF=2) on the h′=0 panel: paper-visible ≈ 0.107.
	last := tables[0].NumRows() - 1
	b.ReportMetric(cell(b, tables[0], last, 9), "G@p0.9,nF2")
}

func BenchmarkFigure3(b *testing.B) {
	tables := runExperiment(b, "F3")
	// Record C(p=0.9, nF=2) on the h′=0 panel.
	last := tables[0].NumRows() - 1
	b.ReportMetric(cell(b, tables[0], last, 9), "C@p0.9,nF2")
}

func BenchmarkTableThresholds(b *testing.B) {
	tables := runExperiment(b, "T1")
	// Row 3 is b=50, h′=0.3, n̄(C)=10: model-B threshold 0.45.
	b.ReportMetric(cell(b, tables[0], 3, 5), "pthB@b50,h.3,nc10")
}

func BenchmarkTableValidation(b *testing.B) {
	tables := runExperiment(b, "T2")
	// Report the worst t̄ relative error across rows.
	worst := 0.0
	for r := 0; r < tables[0].NumRows(); r++ {
		if rel := cell(b, tables[0], r, 9); rel > worst {
			worst = rel
		}
	}
	b.ReportMetric(worst, "worst-rel-t̄")
}

func BenchmarkTableEstimator(b *testing.B) {
	tables := runExperiment(b, "T3")
	// Report the model-A estimator absolute error.
	b.ReportMetric(cell(b, tables[0], 0, 4), "ĥ′-abs-err")
}

func BenchmarkTableModelCompare(b *testing.B) {
	tables := runExperiment(b, "T4")
	// Report the A/B gain gap at the largest n̄(C) (last row).
	last := tables[0].NumRows() - 1
	b.ReportMetric(cell(b, tables[0], last, 4), "|GA-GB|@nc1e4")
}

func BenchmarkTableConditions(b *testing.B) {
	tables := runExperiment(b, "T5")
	// Violations must be zero; report the sum so regressions surface.
	total := 0.0
	for r := 0; r < tables[0].NumRows(); r++ {
		total += cell(b, tables[0], r, 3) + cell(b, tables[0], r, 4)
	}
	b.ReportMetric(total, "redundancy-violations")
}

func BenchmarkTableLoadImpedance(b *testing.B) {
	tables := runExperiment(b, "T6")
	// Report the impedance ratio: C at ρ′=0.88 over C at ρ′=0.05.
	last := tables[0].NumRows() - 1
	b.ReportMetric(cell(b, tables[0], last, 2)/cell(b, tables[0], 0, 2), "C-ratio-hi/lo")
}

func BenchmarkTablePolicies(b *testing.B) {
	tables := runExperiment(b, "T7")
	// Report the paper-threshold gain at λ=30 (row 1 of panel 0).
	b.ReportMetric(cell(b, tables[0], 1, 3), "G-paper@λ30")
}

func BenchmarkTablePS(b *testing.B) {
	tables := runExperiment(b, "T8")
	// Report the worst PS relative error across loads and size dists.
	worst := 0.0
	for r := 0; r < tables[0].NumRows(); r++ {
		for _, c := range []int{4, 5} {
			if rel := cell(b, tables[0], r, c); rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst, "worst-rel-r̄")
}

func BenchmarkTableRRQuantum(b *testing.B) {
	tables := runExperiment(b, "T9")
	// Report the finest-quantum relative error vs PS (last row).
	last := tables[0].NumRows() - 1
	b.ReportMetric(cell(b, tables[0], last, 2), "rel@q0.02")
}

func BenchmarkTableMixed(b *testing.B) {
	tables := runExperiment(b, "T10")
	// Report the greedy/paper gain ratio at h′=0.3 (row 1).
	b.ReportMetric(cell(b, tables[0], 1, 7), "greedy/paper-G@h.3")
}

func BenchmarkTableQoS(b *testing.B) {
	tables := runExperiment(b, "T11")
	// Report the miss probability at deadline 0.05 for the good
	// prefetching row (row 1, column 5).
	b.ReportMetric(cell(b, tables[0], 1, 5), "P(t>.05)@p0.7")
}

func BenchmarkTableSized(b *testing.B) {
	tables := runExperiment(b, "T12")
	// Model A threshold must be identical in every row; report the
	// spread (should be 0).
	first := cell(b, tables[0], 0, 1)
	spread := 0.0
	for r := 1; r < tables[0].NumRows(); r++ {
		d := cell(b, tables[0], r, 1) - first
		if d < 0 {
			d = -d
		}
		if d > spread {
			spread = d
		}
	}
	b.ReportMetric(spread, "pthA-size-spread")
}

func BenchmarkTablePredictors(b *testing.B) {
	tables := runExperiment(b, "T13")
	// Report markov1's precision (row 0).
	b.ReportMetric(cell(b, tables[0], 0, 2), "precision-markov1")
}

func BenchmarkTableBursty(b *testing.B) {
	tables := runExperiment(b, "T14")
	// Report the MMPP/Poisson access-time inflation of the baseline row.
	b.ReportMetric(cell(b, tables[0], 0, 3), "burst-inflation")
}

// BenchmarkClosedFormEvaluate times the hot analytic path by itself:
// one full Evaluate per iteration.
func BenchmarkClosedFormEvaluate(b *testing.B) {
	par := analytic.Params{Lambda: 30, B: 50, SBar: 1, HPrime: 0.3, NC: 100}
	for i := 0; i < b.N; i++ {
		if _, err := analytic.Evaluate(analytic.ModelA{}, par, 0.5, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}
