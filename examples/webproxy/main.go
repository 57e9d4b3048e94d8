// Webproxy: an end-to-end shoot-out of prefetch policies on a live
// prefetcher.Engine fed by a simulated browsing workload.
//
// Clients browse a 500-page site with strong link-following structure
// (first-order Markov) through one shared proxy running the public
// engine: a Markov-1 access predictor feeds candidate predictions
// through one of several prefetch policies. The paper's threshold
// policy recomputes its cutoff from live load estimates; the baselines
// do not. The ρ̂′/p̂_th columns are the controller's global no-prefetch
// estimate; the cutoff in force is the fabric's measured demand-only
// ρ̂′ — here the one origin link's (the "link ρ̂′" column) — and every
// prefetch that lands a hit takes a demand fetch off that link, so the
// paper threshold's cutoff sinks as it succeeds and it ends up next to
// top2, while static(θ=0.5) shows the selective end of the trade.
//
// The second half runs the same proxy on the backend fetch fabric over
// real HTTP: the site is served by two live in-process HTTP origins (a
// fast one and a slower mirror) through the httpfetch adapter, demand
// fetches are hedged against the mirror when the origin's p95 stalls,
// and speculative candidates coalesce into framed /batch requests. Each
// link reports its own ρ̂′; candidates are admitted once, against their
// mean weighted by each link's bandwidth, and routed after: each fetch
// goes to the link of least (in-flight + 1)/b, so the faster origin,
// with twice the mirror's b, takes the mirror's share only while it has
// fetches in flight.
//
// Run:
//
//	go run ./examples/webproxy            # λ=30: moderate load
//	go run ./examples/webproxy -lambda 42 # push the link harder
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/prefetcher"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

func main() {
	lambda := flag.Float64("lambda", 30, "aggregate request rate λ")
	requests := flag.Int("requests", 20000, "requests to drive through each engine")
	flag.Parse()

	policies := []struct {
		name string
		pol  prefetcher.Policy
	}{
		{"none", prefetcher.NoPrefetch()},
		{"paper-threshold(A)", prefetcher.AdaptiveThreshold(prefetcher.ModelA())},
		{"static(θ=0.05)", prefetcher.StaticThreshold(0.05)},
		{"static(θ=0.5)", prefetcher.StaticThreshold(0.5)},
		{"top2", prefetcher.TopK(2)},
	}

	tb := stats.NewTable(
		fmt.Sprintf("web proxy, λ=%g, b=50: live-engine policy comparison (%d requests)",
			*lambda, *requests),
		"policy", "hit ratio", "ρ̂′", "p̂_th", "link ρ̂′", "n̄(F)", "issued", "used", "wasted", "accuracy")
	for _, pc := range policies {
		st, err := drive(pc.pol, *lambda, *requests)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(pc.name,
			fmt.Sprintf("%.4f", st.HitRatio()),
			fmt.Sprintf("%.3f", st.RhoPrime),
			fmt.Sprintf("%.3f", st.Threshold),
			fmt.Sprintf("%.3f", st.Backends[0].RhoPrime),
			fmt.Sprintf("%.3f", st.NF),
			fmt.Sprintf("%d", st.PrefetchIssued),
			fmt.Sprintf("%d", st.PrefetchUsed),
			fmt.Sprintf("%d", st.PrefetchWasted),
			fmt.Sprintf("%.3f", st.Accuracy()))
	}
	tb.AddNote("the paper's threshold admits against the fabric's ρ̂′ — on this one backend the origin link's measured demand-only load (link ρ̂′), which its own hits lower — not the global no-prefetch estimate in the ρ̂′/p̂_th columns; static/top-k ignore load altogether")
	fmt.Print(tb.Text())

	if err := driveFabric(); err != nil {
		log.Fatal(err)
	}
}

// pageBytes is the size every simulated page weighs; backend
// bandwidths below are in the same bytes-per-second units.
const pageBytes = 64

// newSite starts a live in-process HTTP origin serving the site: a
// fixed round-trip latency per request (cancelled promptly when the
// client gives up — hedge losers release the handler), deterministic
// pageBytes-sized payloads on /obj/{id}, and the framed httpfetch
// batch wire on /batch.
func newSite(latency time.Duration) *httptest.Server {
	page := func(id int64) []byte {
		unit := strconv.FormatInt(id, 10) + "."
		b := make([]byte, pageBytes)
		for i := range b {
			b[i] = unit[i%len(unit)]
		}
		return b
	}
	wait := func(r *http.Request) bool {
		t := time.NewTimer(latency)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-r.Context().Done():
			return false
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", func(w http.ResponseWriter, r *http.Request) {
		if !wait(r) {
			return
		}
		id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/obj/"), 10, 64)
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		w.Write(page(id))
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if !wait(r) {
			return
		}
		ids, err := httpfetch.ParseIDs(r.URL.Query().Get("ids"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, id := range ids {
			if err := httpfetch.WriteBatchItem(w, id, page(int64(id))); err != nil {
				return
			}
		}
	})
	return httptest.NewServer(mux)
}

// driveFabric runs the proxy on a two-backend fetch fabric over live
// HTTP: origin + slower mirror behind the httpfetch adapter, hedged
// demand fetches and per-path attempt timeouts.
func driveFabric() error {
	origin := newSite(500 * time.Microsecond)
	defer origin.Close()
	mirror := newSite(2 * time.Millisecond)
	defer mirror.Close()

	originC, err := httpfetch.New(httpfetch.Config{BaseURL: origin.URL, BatchPath: "/batch"})
	if err != nil {
		return err
	}
	mirrorC, err := httpfetch.New(httpfetch.Config{BaseURL: mirror.URL, BatchPath: "/batch"})
	if err != nil {
		return err
	}

	eng, err := prefetcher.New(nil,
		prefetcher.WithBackends(
			// Demand attempts get a generous per-attempt budget (a stuck
			// connection fails over instead of stalling the client);
			// speculative traffic a much tighter one (an overdue prefetch
			// is better abandoned than left occupying the link).
			fetch.Backend{Name: "origin", Fetcher: originC, Bandwidth: 40 * pageBytes,
				DemandTimeout: 2 * time.Second, SpeculativeTimeout: 500 * time.Millisecond},
			fetch.Backend{Name: "mirror", Fetcher: mirrorC, Bandwidth: 20 * pageBytes,
				DemandTimeout: 2 * time.Second, SpeculativeTimeout: 500 * time.Millisecond},
		),
		prefetcher.WithHedging(fetch.Hedging{}), // hedge at the origin's live p95
		prefetcher.WithBandwidth(60*pageBytes),  // aggregate, for the global estimate
		prefetcher.WithCache(prefetcher.NewLRUCache(80)),
		prefetcher.WithPolicy(prefetcher.StaticThreshold(0.05)),
		prefetcher.WithMaxPrefetch(2),
		prefetcher.WithWorkers(4),
	)
	if err != nil {
		return err
	}
	defer eng.Close()

	// Browse in bursts with idle gaps, in wall time: the bursts load the
	// links, the gaps let their ρ̂′ decay.
	src := rng.New(11)
	site := workload.NewMarkov(workload.MarkovConfig{
		N: 500, Fanout: 2, Decay: 0.15, Restart: 0.03,
	}, src)
	ctx := context.Background()
	for burst := 0; burst < 6; burst++ {
		for i := 0; i < 300; i++ {
			if _, err := eng.Get(ctx, prefetcher.ID(site.Next())); err != nil {
				return err
			}
		}
		time.Sleep(200 * time.Millisecond) // idle period
	}
	qctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := eng.Quiesce(qctx); err != nil {
		return err
	}

	st := eng.Stats()
	fmt.Printf("\ntwo-backend fetch fabric over live HTTP (origin + mirror, hedged):\n")
	fmt.Printf("  requests=%d hit=%.3f prefetch[issued=%d used=%d]\n",
		st.Requests, st.HitRatio(), st.PrefetchIssued, st.PrefetchUsed)
	for _, b := range st.Backends {
		fmt.Printf("  %-7s ρ̂′=%.3f ρ̂=%.3f demand=%d spec=%d hedges won/launched=%d/%d\n",
			b.Name, b.RhoPrime, b.Rho, b.Demand, b.Speculative,
			b.HedgesWon, b.HedgesLaunched)
	}
	fmt.Println("→ each link reports its own ρ̂′, candidates are admitted once against their bandwidth-weighted mean, and the mirror absorbs hedged tails")
	return nil
}

// drive runs one engine over the synthetic browsing workload and
// returns its final stats.
func drive(pol prefetcher.Policy, lambda float64, requests int) (prefetcher.Stats, error) {
	fetch := prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1}, nil
	})
	clock := prefetcher.NewManualClock(time.Unix(0, 0))
	eng, err := prefetcher.New(fetch,
		prefetcher.WithBandwidth(50),
		prefetcher.WithCache(prefetcher.NewLRUCache(80)),
		prefetcher.WithPredictor(prefetcher.NewMarkovPredictor()),
		prefetcher.WithPolicy(pol),
		prefetcher.WithClock(clock),
		prefetcher.WithMaxPrefetch(2),
		prefetcher.WithWorkers(4),
	)
	if err != nil {
		return prefetcher.Stats{}, err
	}
	defer eng.Close()

	src := rng.New(7)
	site := workload.NewMarkov(workload.MarkovConfig{
		N: 500, Fanout: 2, Decay: 0.15, Restart: 0.03,
	}, src)
	inter := rng.Exponential{Rate: lambda}

	ctx := context.Background()
	for i := 0; i < requests; i++ {
		clock.AdvanceSeconds(inter.Sample(src))
		if _, err := eng.Get(ctx, prefetcher.ID(site.Next())); err != nil {
			return prefetcher.Stats{}, err
		}
		// Drain speculation each step so every policy gets the same
		// zero-latency prefetch semantics the closed-form model assumes.
		if err := eng.Quiesce(ctx); err != nil {
			return prefetcher.Stats{}, err
		}
	}
	return eng.Stats(), nil
}
