package workload

import (
	"fmt"

	"repro/internal/cache"
)

// Replay is a Source that replays the per-user item sequence of a
// recorded trace. Only the reference *sequence* is replayed — the
// simulator supplies its own arrival process — so a trace captured at
// one request rate can be re-simulated at another, which is exactly the
// what-if analysis the paper's model enables (the reference structure
// sets h′ and p; λ and b set the load).
type Replay struct {
	items []cache.ID
	pos   int
	loop  bool
	name  string
}

// NewReplay builds a replay source from the records belonging to the
// given user (user < 0 replays every record regardless of user). With
// loop true the sequence restarts when exhausted, so the source can
// serve an arbitrary number of requests. It returns an error when the
// selection is empty.
func NewReplay(records []Record, user int, loop bool) (*Replay, error) {
	var items []cache.ID
	for _, r := range records {
		if user < 0 || r.User == user {
			items = append(items, r.Item)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("workload: no trace records for user %d", user)
	}
	return &Replay{
		items: items,
		loop:  loop,
		name:  fmt.Sprintf("replay(user=%d,n=%d,loop=%t)", user, len(items), loop),
	}, nil
}

// Len returns the number of replayable requests in one pass.
func (r *Replay) Len() int { return len(r.items) }

// Rewind restarts the replay from the head of the sequence. It lets a
// sweep (e.g. prefetchbench's shard sweep) reuse one Replay — and the
// per-user record buffer it scanned out of the trace — instead of
// rebuilding every source for every run.
func (r *Replay) Rewind() { r.pos = 0 }

// Exhausted reports whether a non-looping replay has consumed every
// record.
func (r *Replay) Exhausted() bool { return !r.loop && r.pos >= len(r.items) }

// Next implements Source. A non-looping replay panics when exhausted;
// check Exhausted (or size the simulation to Len) to avoid that.
func (r *Replay) Next() cache.ID {
	if r.pos >= len(r.items) {
		if !r.loop {
			panic("workload: replay exhausted; size the run to Len() or enable looping")
		}
		r.pos = 0
	}
	id := r.items[r.pos]
	r.pos++
	return id
}

// Name implements Source.
func (r *Replay) Name() string { return r.name }
