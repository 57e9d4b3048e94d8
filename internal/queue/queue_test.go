package queue

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/rng"
)

func TestPSMeanResponseFormula(t *testing.T) {
	got, err := PSMeanResponse(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("PSMeanResponse(2, 0.5) = %v, want 4", got)
	}
}

func TestPSMeanResponseErrors(t *testing.T) {
	if _, err := PSMeanResponse(1, 1); err != ErrOverload {
		t.Error("rho=1 should be overload")
	}
	if _, err := PSMeanResponse(1, 1.5); err != ErrOverload {
		t.Error("rho>1 should be overload")
	}
	if _, err := PSMeanResponse(-1, 0.5); err == nil {
		t.Error("negative x should error")
	}
	if _, err := PSMeanResponse(math.NaN(), 0.5); err == nil {
		t.Error("NaN should error")
	}
}

func TestPSSlowdown(t *testing.T) {
	got, err := PSSlowdown(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("slowdown at rho=0.75 = %v, want 4", got)
	}
}

func TestUtilisation(t *testing.T) {
	if got := Utilisation(30, 1, 50); got != 0.6 {
		t.Errorf("Utilisation(30,1,50) = %v, want 0.6", got)
	}
	if !math.IsInf(Utilisation(1, 1, 0), 1) {
		t.Error("zero capacity should give infinite utilisation")
	}
}

func TestMM1MeanResponse(t *testing.T) {
	got, err := MM1MeanResponse(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("MM1MeanResponse(3,5) = %v, want 0.5", got)
	}
	if _, err := MM1MeanResponse(5, 5); err != ErrOverload {
		t.Error("λ=μ should be overload")
	}
	if _, err := MM1MeanResponse(-1, 5); err == nil {
		t.Error("negative lambda should error")
	}
}

func TestMG1FCFSMeanWait(t *testing.T) {
	// M/M/1 special case: E[S²] = 2/μ², W = ρ/(μ-λ).
	lambda, mu := 3.0, 5.0
	rho := lambda / mu
	es2 := 2 / (mu * mu)
	got, err := MG1FCFSMeanWait(lambda, es2, rho)
	if err != nil {
		t.Fatal(err)
	}
	want := rho / (mu - lambda)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PK wait = %v, want %v", got, want)
	}
	if _, err := MG1FCFSMeanWait(1, 1, 1); err != ErrOverload {
		t.Error("rho=1 should be overload")
	}
}

func TestPSMeanJobs(t *testing.T) {
	got, err := PSMeanJobs(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("PSMeanJobs(0.5) = %v, want 1", got)
	}
	if _, err := PSMeanJobs(1); err != ErrOverload {
		t.Error("rho=1 should be overload")
	}
}

// Two equal jobs submitted together should each take twice their solo
// time: the elementary PS sharing check.
func TestPSServerSharesCapacity(t *testing.T) {
	sim := des.New()
	srv := NewPSServer(sim, 1)
	var r1, r2 float64
	srv.Submit(&Job{Size: 1, Done: func(r float64) { r1 = r }})
	srv.Submit(&Job{Size: 1, Done: func(r float64) { r2 = r }})
	sim.Run()
	if math.Abs(r1-2) > 1e-9 || math.Abs(r2-2) > 1e-9 {
		t.Errorf("responses = %v, %v; want 2, 2", r1, r2)
	}
}

// A short job arriving while a long one is in service finishes first,
// and the long job's completion accounts for the shared period.
func TestPSServerPreemptionByShortJob(t *testing.T) {
	sim := des.New()
	srv := NewPSServer(sim, 1)
	var longDone, shortDone float64
	srv.Submit(&Job{Size: 10, Done: func(r float64) { longDone = sim.Now() }})
	sim.Schedule(1, func() {
		srv.Submit(&Job{Size: 1, Done: func(r float64) { shortDone = sim.Now() }})
	})
	sim.Run()
	// Long job alone for 1s (9 left). Then shared: short needs 1 unit at
	// rate 1/2 → finishes at t=3; long then has 8 left alone → t=11.
	if math.Abs(shortDone-3) > 1e-9 {
		t.Errorf("short job finished at %v, want 3", shortDone)
	}
	if math.Abs(longDone-11) > 1e-9 {
		t.Errorf("long job finished at %v, want 11", longDone)
	}
}

func TestPSServerSoloJob(t *testing.T) {
	sim := des.New()
	srv := NewPSServer(sim, 4)
	var resp float64
	srv.Submit(&Job{Size: 2, Done: func(r float64) { resp = r }})
	sim.Run()
	if math.Abs(resp-0.5) > 1e-12 {
		t.Errorf("solo response = %v, want 0.5", resp)
	}
	if srv.Served() != 1 || srv.Load() != 0 {
		t.Error("bookkeeping wrong after solo job")
	}
}

func TestPSServerRejectsBadJobs(t *testing.T) {
	sim := des.New()
	srv := NewPSServer(sim, 1)
	for _, size := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %v should panic", size)
				}
			}()
			srv.Submit(&Job{Size: size})
		}()
	}
}

func TestNewPSServerPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity should panic")
		}
	}()
	NewPSServer(des.New(), 0)
}

// runPSSim drives an M/G/1-PS simulation and returns the observed mean
// response time and mean service requirement.
func runPSSim(t *testing.T, seed uint64, lambda float64, size rng.Dist,
	capacity float64, jobs int) (meanResp, meanSize float64) {
	t.Helper()
	sim := des.New()
	srv := NewPSServer(sim, capacity)
	arrivals := rng.NewStream(seed, "arrivals")
	sizes := rng.NewStream(seed, "sizes")
	inter := rng.Exponential{Rate: lambda}
	submitted := 0
	var sizeSum float64
	var arrive func()
	arrive = func() {
		if submitted >= jobs {
			return
		}
		submitted++
		sz := size.Sample(sizes)
		sizeSum += sz
		srv.Submit(&Job{Size: sz})
		sim.After(inter.Sample(arrivals), arrive)
	}
	sim.After(inter.Sample(arrivals), arrive)
	sim.Run()
	if srv.Served() != int64(jobs) {
		t.Fatalf("served %d jobs, want %d", srv.Served(), jobs)
	}
	return srv.Response.Mean(), sizeSum / float64(jobs)
}

// The headline validation: simulated M/G/1-PS mean response ≈ x̄/(1−ρ)
// (paper eq. 2) with exponential sizes.
func TestPSServerMatchesAnalyticExponential(t *testing.T) {
	lambda, capacity := 0.6, 1.0
	size := rng.Exponential{Rate: 1} // mean 1 → ρ = 0.6
	meanResp, meanSize := runPSSim(t, 11, lambda, size, capacity, 60000)
	rho := Utilisation(lambda, 1, capacity)
	want, err := PSMeanResponse(meanSize, rho)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(meanResp-want) / want; rel > 0.05 {
		t.Errorf("PS sim mean %v vs analytic %v (rel %.3f)", meanResp, want, rel)
	}
}

// Insensitivity: the same mean holds under heavy-tailed Pareto sizes.
func TestPSServerInsensitivityPareto(t *testing.T) {
	lambda, capacity := 0.6, 1.0
	size := rng.NewParetoMean(1, 2.2)
	meanResp, _ := runPSSim(t, 13, lambda, size, capacity, 80000)
	rho := Utilisation(lambda, 1, capacity)
	want, _ := PSMeanResponse(1, rho)
	if rel := math.Abs(meanResp-want) / want; rel > 0.10 {
		t.Errorf("PS Pareto sim mean %v vs analytic %v (rel %.3f)", meanResp, want, rel)
	}
}

// By contrast, FCFS with the same Pareto workload must be measurably
// worse than with exponential sizes — sensitivity to variance.
func TestFCFSSensitivity(t *testing.T) {
	runFCFS := func(seed uint64, size rng.Dist) float64 {
		sim := des.New()
		srv := NewFCFSServer(sim, 1)
		arrivals := rng.NewStream(seed, "arrivals")
		sizes := rng.NewStream(seed, "sizes")
		inter := rng.Exponential{Rate: 0.5}
		submitted := 0
		var arrive func()
		arrive = func() {
			if submitted >= 40000 {
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
	exp := runFCFS(17, rng.Exponential{Rate: 1})
	par := runFCFS(17, rng.NewParetoMean(1, 2.2))
	if par <= exp {
		t.Errorf("FCFS should be worse under Pareto: exp=%v pareto=%v", exp, par)
	}
}

func TestFCFSMatchesMM1(t *testing.T) {
	sim := des.New()
	srv := NewFCFSServer(sim, 1)
	arrivals := rng.NewStream(19, "arrivals")
	sizes := rng.NewStream(19, "sizes")
	lambda, mu := 0.5, 1.0
	inter := rng.Exponential{Rate: lambda}
	svc := rng.Exponential{Rate: mu}
	submitted := 0
	var arrive func()
	arrive = func() {
		if submitted >= 60000 {
			return
		}
		submitted++
		srv.Submit(&Job{Size: svc.Sample(sizes)})
		sim.After(inter.Sample(arrivals), arrive)
	}
	sim.After(inter.Sample(arrivals), arrive)
	sim.Run()
	want, _ := MM1MeanResponse(lambda, mu)
	got := srv.Response.Mean()
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("FCFS M/M/1 sim mean %v vs analytic %v", got, want)
	}
}

// Little's law cross-check on the PS server: mean jobs = λ_effective ×
// mean response.
func TestPSServerLittlesLaw(t *testing.T) {
	sim := des.New()
	srv := NewPSServer(sim, 1)
	arrivals := rng.NewStream(23, "arrivals")
	sizes := rng.NewStream(23, "sizes")
	lambda := 0.7
	inter := rng.Exponential{Rate: lambda}
	svc := rng.Exponential{Rate: 1}
	submitted := 0
	var arrive func()
	arrive = func() {
		if submitted >= 60000 {
			return
		}
		submitted++
		srv.Submit(&Job{Size: svc.Sample(sizes)})
		sim.After(inter.Sample(arrivals), arrive)
	}
	sim.After(inter.Sample(arrivals), arrive)
	sim.Run()
	meanJobs := srv.MeanJobs()
	effLambda := float64(srv.Served()) / sim.Now()
	viaLittle := effLambda * srv.Response.Mean()
	if rel := math.Abs(meanJobs-viaLittle) / viaLittle; rel > 0.05 {
		t.Errorf("Little's law mismatch: L=%v λT=%v", meanJobs, viaLittle)
	}
}

// Property: total service delivered equals total size of completed jobs
// (work conservation) for arbitrary arrival patterns.
func TestQuickPSWorkConservation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%20) + 1
		r := rng.New(seed)
		sim := des.New()
		srv := NewPSServer(sim, 2)
		var totalSize float64
		for i := 0; i < count; i++ {
			sz := 0.1 + r.Float64()*5
			totalSize += sz
			at := r.Float64() * 10
			sim.Schedule(at, func() { srv.Submit(&Job{Size: sz}) })
		}
		sim.Run()
		if srv.Served() != int64(count) {
			return false
		}
		// Busy time × capacity ≥ total work; equality when never idle
		// with >0 jobs — but with idle gaps busy*capacity == total work
		// exactly since capacity is fully used while busy... only if at
		// most capacity-rate work is pending. For ideal PS the server
		// always works at full rate while non-empty, so:
		return math.Abs(srv.BusyTime()*2-totalSize) < 1e-6*totalSize+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: responses are never shorter than size/capacity (no job can
// beat an empty server).
func TestQuickPSResponseLowerBound(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%15) + 1
		r := rng.New(seed)
		sim := des.New()
		srv := NewPSServer(sim, 3)
		ok := true
		for i := 0; i < count; i++ {
			sz := 0.1 + r.Float64()*5
			at := r.Float64() * 5
			sim.Schedule(at, func() {
				srv.Submit(&Job{Size: sz, Done: func(resp float64) {
					if resp < sz/3-1e-9 {
						ok = false
					}
				}})
			})
		}
		sim.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPSServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := des.New()
		srv := NewPSServer(sim, 1)
		arrivals := rng.NewStream(1, "arrivals")
		sizes := rng.NewStream(1, "sizes")
		inter := rng.Exponential{Rate: 0.7}
		svc := rng.Exponential{Rate: 1}
		submitted := 0
		var arrive func()
		arrive = func() {
			if submitted >= 2000 {
				return
			}
			submitted++
			srv.Submit(&Job{Size: svc.Sample(sizes)})
			sim.After(inter.Sample(arrivals), arrive)
		}
		sim.After(inter.Sample(arrivals), arrive)
		sim.Run()
	}
}

// TestPSServerBusyTimeAndCounts checks PSServer's bookkeeping: busy
// time covers only the spans with a job present, Load counts the jobs
// sharing the server, and Served counts completions.
func TestPSServerBusyTimeAndCounts(t *testing.T) {
	sim := des.New()
	srv := NewPSServer(sim, 2)
	if srv.Capacity() != 2 {
		t.Fatalf("Capacity = %v, want 2", srv.Capacity())
	}
	// Two jobs of 1 share the server from t=0 and both finish at t=1; a
	// job of 2 arrives at t=5 and runs alone until t=6.
	srv.Submit(&Job{Size: 1})
	srv.Submit(&Job{Size: 1})
	var loadShared, loadIdle int
	sim.Schedule(0.5, func() { loadShared = srv.Load() })
	sim.Schedule(3, func() { loadIdle = srv.Load() })
	sim.Schedule(5, func() { srv.Submit(&Job{Size: 2}) })
	sim.Run()
	if loadShared != 2 || loadIdle != 0 {
		t.Errorf("Load = %d while shared, %d while idle; want 2, 0", loadShared, loadIdle)
	}
	if srv.Served() != 3 || srv.Load() != 0 {
		t.Errorf("Served %d, Load %d at the end; want 3, 0", srv.Served(), srv.Load())
	}
	if math.Abs(srv.BusyTime()-2) > 1e-9 {
		t.Errorf("BusyTime = %v, want 2 (the idle span 1..5 excluded)", srv.BusyTime())
	}
	if math.Abs(sim.Now()-6) > 1e-9 {
		t.Errorf("last completion at %v, want 6", sim.Now())
	}
}

// TestFCFSServerServesInOrder checks that FCFS runs jobs one at a time
// in arrival order: Load counts the job in service with those waiting,
// and each job's response includes the work queued ahead of it.
func TestFCFSServerServesInOrder(t *testing.T) {
	sim := des.New()
	srv := NewFCFSServer(sim, 1)
	var resp []float64
	for i := 0; i < 3; i++ {
		srv.Submit(&Job{Size: 1, Done: func(r float64) { resp = append(resp, r) }})
	}
	if srv.Load() != 3 {
		t.Fatalf("Load with 1 in service and 2 waiting = %d, want 3", srv.Load())
	}
	var loadLater int
	sim.Schedule(1.5, func() { loadLater = srv.Load() })
	sim.Run()
	if loadLater != 2 {
		t.Errorf("Load at t=1.5 = %d, want 2", loadLater)
	}
	if len(resp) != 3 || resp[0] != 1 || resp[1] != 2 || resp[2] != 3 {
		t.Errorf("responses %v, want [1 2 3]", resp)
	}
	if srv.Served() != 3 || srv.Load() != 0 || srv.Response.Mean() != 2 {
		t.Errorf("Served %d, Load %d, mean response %v; want 3, 0, 2",
			srv.Served(), srv.Load(), srv.Response.Mean())
	}
}
