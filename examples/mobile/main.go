// Mobile: speculative prefetching over a wireless link — the low-
// bandwidth regime the authors' earlier work (WOWMOM '98) targeted and
// the conclusion flags for QoS of multimedia access.
//
// The threshold p_th = f′λs̄/b is inversely proportional to bandwidth:
// over a fat link almost any prediction is worth prefetching; over a
// thin one only near-certain items qualify, and below a critical
// bandwidth prefetching should be disabled outright (p_th ≥ 1). This
// example sweeps bandwidth and shows the decision flipping, plus the
// load-impedance effect: prefetching during a busy period costs a
// multiple of what the same prefetch costs when idle.
//
// Run:
//
//	go run ./examples/mobile
package main

import (
	"fmt"
	"log"

	"repro/internal/stats"
	"repro/prefetcher"
)

func main() {
	const (
		lambda = 12  // requests/s from the handheld's apps
		sbar   = 1   // mean object size (normalised)
		hPrime = 0.4 // cache hit ratio without prefetching
		pGood  = 0.8 // predictor confidence for the next object
	)

	tb := stats.NewTable(
		"wireless link: threshold and gain vs bandwidth (λ=12, s̄=1, h′=0.4, candidate p=0.8)",
		"b", "ρ′", "p_th", "prefetch p=0.8?", "G at n̄(F)=0.5", "C at n̄(F)=0.5")
	for _, b := range []float64{8, 10, 12, 16, 24, 48, 96} {
		par := prefetcher.PlanParams{Lambda: lambda, Bandwidth: b, MeanSize: sbar, HPrime: hPrime}
		planner, err := prefetcher.NewPlanner(prefetcher.ModelA(), par)
		if err != nil {
			log.Fatal(err)
		}
		pth, err := planner.Threshold()
		if err != nil {
			log.Fatal(err)
		}
		decision := "no"
		gCell, cCell := "—", "—"
		if ok, _ := planner.ShouldPrefetch(pGood); ok {
			decision = "yes"
			e, err := planner.Evaluate(0.5, pGood)
			if err == nil {
				gCell = fmt.Sprintf("%.5f", e.G)
				cCell = fmt.Sprintf("%.5f", e.C)
			}
		}
		tb.AddRow(
			fmt.Sprintf("%g", b),
			fmt.Sprintf("%.3f", par.RhoPrime()),
			fmt.Sprintf("%.3f", min(pth, 1)),
			decision, gCell, cCell)
	}
	tb.AddNote("below b≈9 even a p=0.8 prediction is not worth fetching speculatively; the gain grows with spare bandwidth")
	fmt.Print(tb.Text())

	// Load impedance: the same prefetch during idle vs busy periods.
	fmt.Println("\nload impedance (eq. 27): one prefetched item (Δρ = 0.1), varying background load")
	for _, rhoPrime := range []float64{0.1, 0.4, 0.7, 0.85} {
		c, err := prefetcher.ExcessCost(lambda, rhoPrime+0.1, rhoPrime)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  background ρ′=%.2f → C = %.5f\n", rhoPrime, c)
	}
	fmt.Println("→ the same speculative bytes cost several times more under load than on an idle link")
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
