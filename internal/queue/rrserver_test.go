package queue

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

func TestRRServerSingleJob(t *testing.T) {
	sim := des.New()
	srv := NewRRServer(sim, 2, 0.5)
	var resp float64
	srv.Submit(&Job{Size: 3, Done: func(r float64) { resp = r }})
	sim.Run()
	if math.Abs(resp-1.5) > 1e-9 {
		t.Errorf("solo response = %v, want 1.5", resp)
	}
	if srv.Served() != 1 || srv.Load() != 0 {
		t.Error("bookkeeping wrong")
	}
}

func TestRRServerAlternatesQuanta(t *testing.T) {
	// Two equal jobs, quantum = half a job: completion order follows the
	// round-robin schedule, and both finish around 2× solo time.
	sim := des.New()
	srv := NewRRServer(sim, 1, 0.5)
	var t1, t2 float64
	srv.Submit(&Job{Size: 1, Done: func(float64) { t1 = sim.Now() }})
	srv.Submit(&Job{Size: 1, Done: func(float64) { t2 = sim.Now() }})
	sim.Run()
	// Schedule: A(0.5) B(0.5) A(0.5 done t=1.5) B(0.5 done t=2).
	if math.Abs(t1-1.5) > 1e-9 || math.Abs(t2-2.0) > 1e-9 {
		t.Errorf("completions = %v, %v; want 1.5, 2.0", t1, t2)
	}
}

func TestRRServerCoarseQuantumIsFCFS(t *testing.T) {
	// Quantum larger than any job ⇒ pure FCFS.
	sim := des.New()
	srv := NewRRServer(sim, 1, 100)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		srv.Submit(&Job{Size: 1, Done: func(float64) { order = append(order, i) }})
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("coarse quantum should serve FCFS, got %v", order)
		}
	}
}

func TestRRServerPanics(t *testing.T) {
	sim := des.New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero quantum should panic")
			}
		}()
		NewRRServer(sim, 1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero capacity should panic")
			}
		}()
		NewRRServer(sim, 0, 1)
	}()
	srv := NewRRServer(sim, 1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad job size should panic")
			}
		}()
		srv.Submit(&Job{Size: 0})
	}()
}

// runRR drives an M/M/1 round-robin simulation and returns the mean
// response time.
func runRR(seed uint64, lambda, quantum float64, jobs int) float64 {
	sim := des.New()
	srv := NewRRServer(sim, 1, quantum)
	arrivals := rng.NewStream(seed, "arrivals")
	sizes := rng.NewStream(seed, "sizes")
	inter := rng.Exponential{Rate: lambda}
	svc := rng.Exponential{Rate: 1}
	submitted := 0
	var arrive func()
	arrive = func() {
		if submitted >= jobs {
			return
		}
		submitted++
		srv.Submit(&Job{Size: svc.Sample(sizes)})
		sim.After(inter.Sample(arrivals), arrive)
	}
	sim.After(inter.Sample(arrivals), arrive)
	sim.Run()
	return srv.Response.Mean()
}

// The paper's identification: round robin with a fine quantum behaves
// like processor sharing, r̄ → x̄/(1−ρ).
func TestRRServerConvergesToPS(t *testing.T) {
	lambda := 0.6
	want, err := PSMeanResponse(1, lambda)
	if err != nil {
		t.Fatal(err)
	}
	fine := runRR(31, lambda, 0.02, 60000)
	if rel := math.Abs(fine-want) / want; rel > 0.08 {
		t.Errorf("quantum 0.02: r̄ = %v vs PS %v (rel %.3f)", fine, want, rel)
	}
}

// Convergence ablation under a heavy-tailed load, where the quantum
// actually matters: with exponential sizes FCFS and PS share the same
// *mean*, so the ablation needs high size variance to show anything.
// Coarse quanta behave like FCFS (mean inflated by the tail); the PS
// approximation error shrinks as the quantum refines.
func TestRRServerQuantumAblation(t *testing.T) {
	rho := 0.6
	size := rng.BoundedPareto{L: 0.2, H: 50, Alpha: 1.2}
	xbar := size.Mean()
	want, _ := PSMeanResponse(xbar, rho)
	runHeavy := func(q float64) float64 {
		sim := des.New()
		srv := NewRRServer(sim, 1, q)
		arrivals := rng.NewStream(35, "arrivals")
		sizes := rng.NewStream(35, "sizes")
		inter := rng.Exponential{Rate: rho / xbar}
		submitted := 0
		var arrive func()
		arrive = func() {
			if submitted >= 60000 {
				return
			}
			submitted++
			srv.Submit(&Job{Size: size.Sample(sizes)})
			sim.After(inter.Sample(arrivals), arrive)
		}
		sim.After(inter.Sample(arrivals), arrive)
		sim.Run()
		return srv.Response.Mean()
	}
	coarse := math.Abs(runHeavy(16)-want) / want
	fine := math.Abs(runHeavy(0.1)-want) / want
	if !(fine < coarse) {
		t.Errorf("PS error should shrink with quantum: fine %.3f, coarse %.3f", fine, coarse)
	}
	if fine > 0.15 {
		t.Errorf("fine quantum error %.3f too large", fine)
	}
}

func BenchmarkRRServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runRR(1, 0.6, 0.1, 2000)
	}
}

// TestRRServerBusyTime checks that RRServer's busy time sums the quanta
// it served and leaves out the idle span between jobs.
func TestRRServerBusyTime(t *testing.T) {
	sim := des.New()
	srv := NewRRServer(sim, 2, 0.5)
	srv.Submit(&Job{Size: 1})
	sim.Schedule(3, func() { srv.Submit(&Job{Size: 2}) })
	sim.Run()
	if math.Abs(srv.BusyTime()-1.5) > 1e-9 {
		t.Errorf("BusyTime = %v, want 1.5 (0.5 + 1.0, idle 0.5..3 excluded)", srv.BusyTime())
	}
	if math.Abs(sim.Now()-4) > 1e-9 || srv.Served() != 2 {
		t.Errorf("ended at %v with %d served; want 4, 2", sim.Now(), srv.Served())
	}
}
