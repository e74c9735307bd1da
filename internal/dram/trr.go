package dram

import "github.com/dramstudy/rhvpp/internal/rng"

// trrDefense is the in-DRAM target-row-refresh contract: observe
// activations between REF commands, and name victim rows to refresh when a
// REF arrives.
type trrDefense interface {
	observeActivations(phys, count int)
	victimsToRefresh(rowsPerBank int) []int
}

// trrEngine emulates an in-DRAM target-row-refresh defense in the style of
// the mechanisms reverse-engineered by TRRespass and U-TRR: a small table of
// frequency counters (Misra-Gries style) samples aggressor candidates during
// activations, and each REF command spends its slack refreshing the
// neighbors of the hottest tracked row.
//
// The paper's methodology deliberately starves TRR by never issuing REF
// commands during tests ("as all TRR defenses require refresh commands to
// work", §4.1); the engine exists so the ablation benches can demonstrate
// exactly that interaction.
type trrEngine struct {
	// slots holds the tracked rows, at most cap(slots): a physical row and
	// its activation count since the last REF. The tracker is a set, so the
	// order of the slots never reaches a result.
	slots []trrSlot
}

// trrSlot is one tracked row of a trrEngine.
type trrSlot struct{ row, count int }

func newTRREngine(capacity int) *trrEngine {
	return &trrEngine{slots: make([]trrSlot, 0, max(capacity, 1))}
}

// observeActivations feeds the tracker with count activations of a physical
// row, using Misra-Gries eviction when the table is full so heavy hitters
// survive.
func (e *trrEngine) observeActivations(phys, count int) {
	for i := range e.slots {
		if e.slots[i].row == phys {
			e.slots[i].count += count
			return
		}
	}
	if len(e.slots) < cap(e.slots) {
		e.slots = append(e.slots, trrSlot{phys, count})
		return
	}
	// Misra-Gries: decrement all by the new arrival's weight; evict zeros.
	min := count
	for _, s := range e.slots {
		if s.count < min {
			min = s.count
		}
	}
	kept := e.slots[:0]
	for _, s := range e.slots {
		if s.count -= min; s.count > 0 {
			kept = append(kept, s)
		}
	}
	e.slots = kept
	if rem := count - min; rem > 0 && len(e.slots) < cap(e.slots) {
		e.slots = append(e.slots, trrSlot{phys, rem})
	}
}

// victimsToRefresh returns the physical neighbors of the hottest tracked
// aggressor, ties to the lowest row, and stops tracking it. Called on each
// REF command.
func (e *trrEngine) victimsToRefresh(rowsPerBank int) []int {
	hot, best, bestCount := -1, -1, 0
	for i, s := range e.slots {
		if s.count > bestCount || (s.count == bestCount && s.row < best) {
			hot, best, bestCount = i, s.row, s.count
		}
	}
	if hot < 0 {
		return nil
	}
	last := len(e.slots) - 1
	e.slots[hot] = e.slots[last]
	e.slots = e.slots[:last]
	var victims []int
	for _, v := range []int{best - 1, best + 1} {
		if v >= 0 && v < rowsPerBank {
			victims = append(victims, v)
		}
	}
	return victims
}

// samplingTRR emulates the sampling-based trackers found in several
// commodity DDR4 devices (as reverse-engineered by TRRespass/U-TRR): each
// activation has a fixed probability of being captured as the "suspect"
// aggressor, and the next REF refreshes the suspect's neighbors. Unlike the
// Misra-Gries engine, a sampler can be diluted by decoy activations — the
// weakness many-sided attacks exploit.
type samplingTRR struct {
	prob    float64
	stream  *rng.Stream
	suspect int
	armed   bool
}

func newSamplingTRR(prob float64, seed uint64) *samplingTRR {
	if prob <= 0 {
		prob = 1.0 / 512
	}
	return &samplingTRR{prob: prob, stream: rng.New(seed).Derive("samplingtrr")}
}

// observeActivations captures the row as the suspect with probability
// 1-(1-p)^count (at least one of the count activations sampled).
func (s *samplingTRR) observeActivations(phys, count int) {
	if count <= 0 {
		return
	}
	pAny := 1.0
	if s.prob < 1 {
		pAny = 1 - pow1m(s.prob, count)
	}
	if s.stream.Bool(pAny) {
		s.suspect = phys
		s.armed = true
	}
}

// pow1m computes (1-p)^n without math.Pow for small p stability.
func pow1m(p float64, n int) float64 {
	r := 1.0
	base := 1 - p
	for n > 0 {
		if n&1 == 1 {
			r *= base
		}
		base *= base
		n >>= 1
	}
	return r
}

// victimsToRefresh returns the suspect's neighbors and disarms the tracker.
func (s *samplingTRR) victimsToRefresh(rowsPerBank int) []int {
	if !s.armed {
		return nil
	}
	s.armed = false
	var victims []int
	for _, v := range []int{s.suspect - 1, s.suspect + 1} {
		if v >= 0 && v < rowsPerBank {
			victims = append(victims, v)
		}
	}
	return victims
}
