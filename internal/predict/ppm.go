package predict

import (
	"fmt"

	"repro/internal/cache"
)

// PPM is an order-k prediction-by-partial-matching model in the style of
// Vitter–Krishnan: it keeps counts for every context of length 1..k and
// blends predictions from the longest matching context downward, paying
// an escape probability at each level (method C: escape mass equals the
// number of distinct successors over total+distinct).
//
// Higher orders capture longer repeated patterns; the escape mechanism
// falls back gracefully when a long context has not been seen often
// enough to trust.
type PPM struct {
	k       int
	tables  []map[string]*ctxStats // tables[o] = contexts of length o+1
	history []cache.ID
}

type ctxStats struct {
	counts map[cache.ID]int64
	total  int64
}

// NewPPM creates a PPM predictor of maximum order k (k >= 1).
func NewPPM(k int) *PPM {
	if k < 1 {
		panic(fmt.Sprintf("predict: PPM order %d must be >= 1", k))
	}
	tables := make([]map[string]*ctxStats, k)
	for i := range tables {
		tables[i] = make(map[string]*ctxStats)
	}
	return &PPM{k: k, tables: tables}
}

// ctxKey serialises a context id slice. IDs are encoded in a compact
// fixed-width form; contexts are short (≤ k items) so this is cheap.
func ctxKey(ids []cache.ID) string {
	buf := make([]byte, 0, len(ids)*8)
	for _, id := range ids {
		v := uint64(id)
		buf = append(buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(buf)
}

// Observe implements Predictor.
func (p *PPM) Observe(id cache.ID) {
	// Update every context order ending just before this request.
	for o := 1; o <= p.k && o <= len(p.history); o++ {
		ctx := ctxKey(p.history[len(p.history)-o:])
		st := p.tables[o-1][ctx]
		if st == nil {
			st = &ctxStats{counts: make(map[cache.ID]int64)}
			p.tables[o-1][ctx] = st
		}
		st.counts[id]++
		st.total++
	}
	p.history = append(p.history, id)
	if len(p.history) > p.k {
		p.history = p.history[1:]
	}
}

// Predict implements Predictor: probabilities are blended over orders
// k..1 with PPM-C escapes.
func (p *PPM) Predict() []Prediction {
	probs := make(map[cache.ID]float64)
	carry := 1.0 // probability mass not yet assigned (escaped so far)
	excluded := make(map[cache.ID]bool)
	for o := min(p.k, len(p.history)); o >= 1 && carry > 1e-12; o-- {
		ctx := ctxKey(p.history[len(p.history)-o:])
		st := p.tables[o-1][ctx]
		if st == nil || st.total == 0 {
			continue
		}
		distinct := int64(len(st.counts))
		denom := float64(st.total + distinct) // method C
		// Exclusion: symbols already predicted at a higher order don't
		// consume probability here.
		var exclCount int64
		for id := range excluded {
			exclCount += st.counts[id]
		}
		avail := float64(st.total-exclCount) + float64(distinct)
		if avail <= 0 {
			continue
		}
		_ = denom
		for id, c := range st.counts {
			if excluded[id] {
				continue
			}
			probs[id] += carry * float64(c) / avail
			excluded[id] = true
		}
		carry *= float64(distinct) / avail
	}
	if len(probs) == 0 {
		return nil
	}
	out := make([]Prediction, 0, len(probs))
	for id, pr := range probs {
		out = append(out, Prediction{Item: id, Prob: pr})
	}
	sortPredictions(out)
	return out
}

// Name implements Predictor.
func (p *PPM) Name() string { return fmt.Sprintf("ppm(k=%d)", p.k) }
