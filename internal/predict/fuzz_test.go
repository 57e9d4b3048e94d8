package predict

import (
	"testing"

	"repro/internal/cache"
)

// FuzzPredictorObserve drives Observe/Predict/PredictTop on the
// concurrent Markov table with an arbitrary request stream. The
// contract under fuzz: no panic on any stream (including empty ones and
// pathological repetition), PredictTop returns at most k entries, and
// top-k ⊆ the full prediction set — PredictTop is a view of Predict,
// never an independent model.
func FuzzPredictorObserve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 2, 255, 3})
	f.Add([]byte("abcabcabdabe"))

	f.Fuzz(func(t *testing.T, stream []byte) {
		m := NewConcurrentMarkov1()
		for i, b := range stream {
			m.Observe(cache.ID(b))
			// Interleave predictions with observations so the fuzz
			// explores mid-stream states, not just the final one.
			if i%7 == 3 {
				_ = m.Predict()
			}
		}
		k := 1 + len(stream)%8
		top := m.PredictTop(k)
		if len(top) > k {
			t.Fatalf("PredictTop(%d) returned %d entries", k, len(top))
		}
		full := m.Predict()
		inFull := make(map[cache.ID]bool, len(full))
		for _, pr := range full {
			inFull[pr.Item] = true
		}
		for _, pr := range top {
			if !inFull[pr.Item] {
				t.Fatalf("PredictTop(%d) item %d not in the full prediction set (%d entries)",
					k, pr.Item, len(full))
			}
		}
	})
}
