package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, ti := range []float64{5, 1, 3, 2, 4} {
		ti := ti
		s.Schedule(ti, func() { order = append(order, ti) })
	}
	s.Run()
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("fired %d events, want 5", len(order))
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.Schedule(2.5, func() {
		if s.Now() != 2.5 {
			t.Errorf("Now() = %v inside handler, want 2.5", s.Now())
		}
	})
	s.Run()
	if s.Now() != 2.5 {
		t.Errorf("final Now() = %v, want 2.5", s.Now())
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(1, func() {
		s.After(2, func() { at = s.Now() })
	})
	s.Run()
	if at != 3 {
		t.Errorf("After(2) from t=1 fired at %v, want 3", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(1, func() { ran = true })
	s.Cancel(e)
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() should report true")
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	ran := false
	var victim *Event
	s.Schedule(1, func() { s.Cancel(victim) })
	victim = s.Schedule(2, func() { ran = true })
	s.Run()
	if ran {
		t.Error("event cancelled by earlier event still ran")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("Stop did not halt: %d events ran", count)
	}
	if s.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run() // clock now 5
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past should panic")
		}
	}()
	s.Schedule(4, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN should panic")
		}
	}()
	s.Schedule(math.NaN(), func() {})
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler should panic")
		}
	}()
	s.Schedule(1, nil)
}

func TestHandlersCanScheduleChains(t *testing.T) {
	// A self-perpetuating arrival process: each event schedules the next.
	s := New()
	count := 0
	var arrive func()
	arrive = func() {
		count++
		if count < 100 {
			s.After(1, arrive)
		}
	}
	s.Schedule(0, arrive)
	s.Run()
	if count != 100 {
		t.Errorf("chain produced %d events, want 100", count)
	}
	if s.Now() != 99 {
		t.Errorf("final time %v, want 99", s.Now())
	}
	if s.Fired() != 100 {
		t.Errorf("Fired = %d, want 100", s.Fired())
	}
}

func TestZeroDelaySelfSchedule(t *testing.T) {
	// Zero-delay events must still respect FIFO and terminate.
	s := New()
	n := 0
	var f func()
	f = func() {
		n++
		if n < 5 {
			s.After(0, f)
		}
	}
	s.Schedule(1, f)
	s.Run()
	if n != 5 {
		t.Errorf("zero-delay chain ran %d times, want 5", n)
	}
	if s.Now() != 1 {
		t.Errorf("clock moved during zero-delay chain: %v", s.Now())
	}
}

// Property: for any batch of random event times, execution order is the
// sorted order of the times.
func TestQuickOrdering(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%64) + 1
		r := rng.New(seed)
		s := New()
		times := make([]float64, count)
		var fired []float64
		for i := range times {
			times[i] = r.Float64() * 100
			ti := times[i]
			s.Schedule(ti, func() { fired = append(fired, ti) })
		}
		s.Run()
		sort.Float64s(times)
		if len(fired) != count {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement
// to fire.
func TestQuickCancellation(t *testing.T) {
	f := func(seed uint64, n uint8, mask uint64) bool {
		count := int(n%32) + 1
		r := rng.New(seed)
		s := New()
		fired := make(map[int]bool)
		events := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = s.Schedule(r.Float64()*10, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Cancel(events[i])
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			want := mask&(1<<uint(i)) == 0
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	r := rng.New(1)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = r.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, t := range times {
			s.Schedule(t, func() {})
		}
		s.Run()
	}
}

// TestRunResumesAfterStop checks that a Stop scheduled as an event ends
// the run at that time, with the later events still on the calendar,
// and that the next Run carries on from there.
func TestRunResumesAfterStop(t *testing.T) {
	s := New()
	var fired []float64
	for _, ti := range []float64{1, 2, 3, 4} {
		ti := ti
		s.Schedule(ti, func() { fired = append(fired, ti) })
	}
	s.Schedule(2.5, s.Stop)
	s.Run()
	if len(fired) != 2 || s.Now() != 2.5 || s.Pending() != 2 {
		t.Fatalf("after Stop at 2.5: fired %v, Now %v, Pending %d; want 2 fired, 2.5, 2",
			fired, s.Now(), s.Pending())
	}
	s.Run()
	if len(fired) != 4 || s.Now() != 4 {
		t.Errorf("resumed run fired %v, Now %v; want all 4 by 4", fired, s.Now())
	}
}

func TestEventTime(t *testing.T) {
	s := New()
	s.Schedule(2, func() {})
	s.Run()
	e := s.After(1.5, func() {})
	if e.Time() != 3.5 {
		t.Errorf("After(1.5) at t=2: Time = %v, want 3.5", e.Time())
	}
	s.Cancel(e)
	if e.Time() != 3.5 || !e.Cancelled() {
		t.Errorf("cancelled event: Time %v, Cancelled %v; want 3.5, true", e.Time(), e.Cancelled())
	}
}
