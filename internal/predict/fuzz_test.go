package predict

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/cache"
)

// maxFuzzIDs caps the ids one fuzz input is read for: enough for
// windows to fill and stripes to grow, few enough to keep each run short.
const maxFuzzIDs = 8192

// idPairs encodes ids as the byte pairs FuzzPredictorObserve reads.
func idPairs(ids ...uint16) []byte {
	b := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint16(b, id)
	}
	return b
}

// FuzzPredictorObserve drives Observe/Predict/PredictTopInto on the
// concurrent Markov table with an arbitrary request stream of 16-bit
// ids, one per byte pair: enough distinct ids that windows fill and a
// once-seen row is replaced below the ceiling. The contract under fuzz:
// no panic on any stream (including empty ones and pathological
// repetition), PredictTopInto returns at most k entries, top-k ⊆ the full
// prediction set — PredictTopInto is a view of Predict, never an
// independent model — and the table passes checkMarkovTable.
func FuzzPredictorObserve(f *testing.F) {
	f.Add([]byte{})
	f.Add(idPairs(1, 2, 3, 1, 2, 3, 1, 2))
	f.Add(idPairs(0, 0, 0, 0))
	f.Add(idPairs(255, 1, 255, 2, 255, 3))
	f.Add([]byte("abcabcabdabe"))
	// Twelve ids of one stripe overflow its first window, so a once-seen
	// row is replaced; walked three times they train rows and the stripe
	// grows.
	var crowd []uint16
	for id := uint16(0); len(crowd) < 12; id++ {
		if stripeOfHash(hashID(cache.ID(id))) == 0 {
			crowd = append(crowd, id)
		}
	}
	f.Add(idPairs(crowd...))
	f.Add(idPairs(append(append(crowd, crowd...), crowd...)...))

	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > maxFuzzIDs*2 {
			stream = stream[:maxFuzzIDs*2]
		}
		m := NewConcurrentMarkov1()
		// Off-heap rows do not pace the collector, so thousands of
		// tables would wait for their finalizers: free each one here.
		defer func() {
			runtime.SetFinalizer(m, nil)
			m.free()
		}()
		for i := 0; i+1 < len(stream); i += 2 {
			m.Observe(cache.ID(binary.LittleEndian.Uint16(stream[i:])))
			// Interleave predictions with observations so the fuzz
			// explores mid-stream states, not just the final one.
			if i%14 == 6 {
				_ = m.Predict()
			}
		}
		k := 1 + len(stream)%8
		top := m.PredictTopInto(nil, k)
		if len(top) > k {
			t.Fatalf("PredictTopInto(nil, %d) returned %d entries", k, len(top))
		}
		full := m.Predict()
		inFull := make(map[cache.ID]bool, len(full))
		for _, pr := range full {
			inFull[pr.Item] = true
		}
		for _, pr := range top {
			if !inFull[pr.Item] {
				t.Fatalf("PredictTopInto(nil, %d) item %d not in the full prediction set (%d entries)",
					k, pr.Item, len(full))
			}
		}
		checkMarkovTable(t, m)
	})
}
