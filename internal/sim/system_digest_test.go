package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/prefetch"
)

// loadBlindDigest is the digest loadBlindResults leaves. None of its
// policies reads ĥ′ or ρ̂′, so how the Section-4 estimator counts cannot
// move it: only the caches, the server and the prefetches can.
const loadBlindDigest = "aecb23a32172890a"

// loadBlindResults runs RunSystem over every policy that never reads the
// controller's estimates, under both interaction models, once on Poisson
// arrivals and once on a recorded trace, and returns a digest of each
// run's measured quantities with one line per run. HPrimeEstimate and
// RhoPrimeEstimate are left out: they report the estimator, which these
// policies do not consult. Floats are printed to nine significant
// digits, so the digest pins the run and not the last ulp.
func loadBlindResults(t *testing.T) (digest string, lines []string) {
	t.Helper()
	trace := genTrace(t, 12000, 30)
	policies := []prefetch.Policy{prefetch.None{}, prefetch.Static{Theta: 0.5}, prefetch.TopK{K: 2}}
	h := fnv.New64a()
	for _, arrivals := range []string{"poisson", "trace"} {
		for _, inter := range []Interaction{InteractionA, InteractionB} {
			for _, pol := range policies {
				cfg := markovSystem(pol)
				cfg.Interaction = inter
				cfg.Requests, cfg.Warmup = 12000, 3000
				if arrivals == "trace" {
					cfg.NewSource, cfg.Trace = nil, trace
				}
				r, err := RunSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				line := fmt.Sprintf("%s %s %s: t=%.9g±%.9g h=%.9g R=%.9g rho=%.9g nF=%.9g issued=%d useful=%d occ=%.9g n=%d T=%.9g",
					arrivals, inter, pol.Name(), r.AccessTime, r.AccessTimeCI, r.HitRatio,
					r.RetrievalPerRequest, r.Utilisation, r.NFObserved, r.PrefetchIssued,
					r.PrefetchUseful, r.MeanOccupancy, r.Requests, r.Duration)
				fmt.Fprintln(h, line)
				lines = append(lines, line)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), lines
}

// TestLoadBlindDigest pins what the simulator measures under policies
// that never read its estimates, so that a change to how ĥ′ is counted
// shows here only if it touched the caches or the traffic too.
func TestLoadBlindDigest(t *testing.T) {
	got, lines := loadBlindResults(t)
	if got != loadBlindDigest {
		for _, l := range lines {
			t.Log(l)
		}
		t.Fatalf("digest %s, want %s", got, loadBlindDigest)
	}
}
