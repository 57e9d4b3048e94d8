// Package des implements a deterministic discrete-event simulation
// kernel: a simulation clock, a binary-heap event calendar with stable
// FIFO tie-breaking for simultaneous events, and cancellable event
// handles.
//
// Determinism matters because the experiment harness reruns simulations
// from fixed seeds and compares outputs against recorded expectations;
// any nondeterminism in event ordering would make those comparisons
// flaky. Ties in event time are broken by scheduling order (sequence
// number), never by map iteration or pointer comparison.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is the callback invoked when an event fires. It runs with the
// simulation clock set to the event's time.
type Handler func()

// Event is a scheduled occurrence. The zero Event is invalid; obtain
// events from Simulator.Schedule.
type Event struct {
	time      float64
	seq       uint64
	index     int // heap index, -1 when not queued
	handler   Handler
	cancelled bool
}

// Time returns the simulation time at which the event fires (or was
// scheduled to fire).
func (e *Event) Time() float64 { return e.time }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

// eventQueue implements heap.Interface ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Simulator owns the clock and the event calendar. It is not safe for
// concurrent use: a simulation is a single logical thread of control.
type Simulator struct {
	now     float64
	seq     uint64
	queue   eventQueue
	stopped bool
	fired   uint64
}

// New returns a simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far (useful as a
// progress/complexity metric in tests).
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule registers handler to run at absolute time t and returns a
// cancellable handle. It panics if t is in the past or not a finite
// number: scheduling into the past is always a model bug, and failing
// fast at the call site beats corrupting the event order silently.
func (s *Simulator) Schedule(t float64, handler Handler) *Event {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: scheduling at non-finite time %v", t))
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, s.now))
	}
	if handler == nil {
		panic("des: nil handler")
	}
	e := &Event{time: t, seq: s.seq, handler: handler}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After schedules handler delay time units from now.
func (s *Simulator) After(delay float64, handler Handler) *Event {
	return s.Schedule(s.now+delay, handler)
}

// Cancel marks the event as cancelled; its handler will not run. The
// event is lazily discarded when it reaches the head of the calendar,
// which keeps Cancel O(1). Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	e.cancelled = true
}

// Stop ends the run: the current Run call returns after the in-flight
// handler finishes.
func (s *Simulator) Stop() { s.stopped = true }

// step fires the earliest pending non-cancelled event. It reports
// whether an event fired.
func (s *Simulator) step() bool {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.cancelled {
			heap.Pop(&s.queue)
			continue
		}
		heap.Pop(&s.queue)
		s.now = head.time
		s.fired++
		head.handler()
		return true
	}
	return false
}

// Run executes events until the calendar is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}
