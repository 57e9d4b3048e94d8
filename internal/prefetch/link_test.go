package prefetch

import (
	"math"
	"sync"
	"testing"
)

// driveLink records steady demand traffic: one size-s fetch every dt
// seconds from t0, returning the time of the last dispatch.
func driveLink(l *Link, t0, dt, size float64, n int) float64 {
	t := t0
	for i := 0; i < n; i++ {
		l.RecordDemand(t)
		l.RecordDemandSize(size)
		t += dt
	}
	return t - dt
}

func TestLinkRhoPrimeSteadyState(t *testing.T) {
	// 10 fetches/s of size 2 on a b=100 link: ρ′ = 10·2/100 = 0.2.
	l := NewLink(100, 0)
	last := driveLink(l, 0, 0.1, 2, 200)
	got := l.RhoPrime(last)
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("RhoPrime = %v, want ≈ 0.2", got)
	}
	if rho := l.Rho(last); math.Abs(rho-got) > 1e-12 {
		t.Fatalf("Rho = %v, want %v with no speculative traffic", rho, got)
	}
}

func TestLinkRhoDecaysWhenIdle(t *testing.T) {
	l := NewLink(10, 0)
	last := driveLink(l, 0, 0.01, 1, 100) // 100/s of size 1 on b=10: saturated
	if rho := l.Rho(last); rho != 1 {
		t.Fatalf("Rho under overload = %v, want clamp at 1", rho)
	}
	// After 10 s idle the burst has left the window.
	if rho := l.Rho(last + 10); rho != 0 {
		t.Fatalf("Rho after 10s idle = %v, want 0", rho)
	}
}

func TestLinkSpeculativeTrafficSplitsRhoFromRhoPrime(t *testing.T) {
	l := NewLink(100, 0)
	t0 := 0.0
	for i := 0; i < 200; i++ {
		l.RecordDemand(t0)
		l.RecordDemandSize(1)
		t0 += 0.05
		l.RecordSpeculative(t0)
		l.RecordSpeculativeSize(1)
		t0 += 0.05
	}
	now := t0 - 0.05
	rhoP, rho := l.RhoPrime(now), l.Rho(now)
	// Demand alone is 10/s·1/100 = 0.1; total traffic 20/s → 0.2.
	if math.Abs(rhoP-0.1) > 0.02 {
		t.Fatalf("RhoPrime = %v, want ≈ 0.1", rhoP)
	}
	if math.Abs(rho-0.2) > 0.04 {
		t.Fatalf("Rho = %v, want ≈ 0.2", rho)
	}
	if rho <= rhoP {
		t.Fatalf("Rho %v must exceed RhoPrime %v under speculative load", rho, rhoP)
	}
}

func TestLinkUnknownBandwidthReadsZeroUntilSet(t *testing.T) {
	l := NewLink(0, 0)
	last := driveLink(l, 0, 0.1, 5, 50)
	if rho := l.RhoPrime(last); rho != 0 {
		t.Fatalf("RhoPrime with unknown bandwidth = %v, want 0", rho)
	}
	l.SetBandwidth(100)
	if rho := l.RhoPrime(last); rho <= 0 {
		t.Fatalf("RhoPrime after SetBandwidth = %v, want > 0", rho)
	}
	l.SetBandwidth(-1) // ignored
	l.SetBandwidth(math.NaN())
	if b := l.Bandwidth(); b != 100 {
		t.Fatalf("Bandwidth = %v, want 100 (bad values ignored)", b)
	}
}

func TestStateWithUsesGivenUtilisation(t *testing.T) {
	c := NewController(1000, 0)
	// Global traffic is heavy…
	for i := 0; i < 100; i++ {
		c.RecordRequest(float64(i)*0.001, 5)
	}
	// …but this link sees a trickle.
	l := NewLink(1000, 0)
	last := driveLink(l, 0, 1, 1, 20)

	st := c.StateWith(l.RhoPrime(last), 3)
	global := c.State(3)
	if st.RhoPrime != l.RhoPrime(last) || st.RhoPrime >= global.RhoPrime {
		t.Fatalf("ρ̂′ %v must be the link's %v, below the global %v", st.RhoPrime, l.RhoPrime(last), global.RhoPrime)
	}
	if st.HPrime != global.HPrime || st.NC != 3 {
		t.Fatalf("ĥ′ must stay global: given %+v vs global %+v", st, global)
	}
}

func TestLinkConcurrentRecording(t *testing.T) {
	l := NewLink(100, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := float64(g)
			for i := 0; i < 1000; i++ {
				now := base + float64(i)*0.001
				if i%2 == 0 {
					l.RecordDemand(now)
					l.RecordDemandSize(1)
				} else {
					l.RecordSpeculative(now)
					l.RecordSpeculativeSize(2)
				}
				_ = l.Rho(now)
				_ = l.RhoPrime(now)
			}
		}(g)
	}
	wg.Wait()
	if rho := l.Rho(8); rho < 0 || rho > 1 {
		t.Fatalf("Rho out of range after concurrent load: %v", rho)
	}
}
