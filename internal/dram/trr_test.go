package dram

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// mapTRR is the Misra-Gries tracker as a map from physical row to count: the
// oracle trrEngine's slots must agree with command by command.
type mapTRR struct {
	capacity int
	counts   map[int]int
}

func newMapTRR(capacity int) *mapTRR {
	if capacity < 1 {
		capacity = 1
	}
	return &mapTRR{capacity: capacity, counts: make(map[int]int, capacity)}
}

func (e *mapTRR) observeActivations(phys, count int) {
	if c, ok := e.counts[phys]; ok {
		e.counts[phys] = c + count
		return
	}
	if len(e.counts) < e.capacity {
		e.counts[phys] = count
		return
	}
	min := count
	for _, c := range e.counts {
		if c < min {
			min = c
		}
	}
	for r, c := range e.counts {
		if c-min <= 0 {
			delete(e.counts, r)
		} else {
			e.counts[r] = c - min
		}
	}
	if rem := count - min; rem > 0 && len(e.counts) < e.capacity {
		e.counts[phys] = rem
	}
}

func (e *mapTRR) victimsToRefresh(rowsPerBank int) []int {
	best, bestCount := -1, 0
	for r, c := range e.counts {
		if c > bestCount || (c == bestCount && r < best) {
			best, bestCount = r, c
		}
	}
	if best < 0 {
		return nil
	}
	delete(e.counts, best)
	var victims []int
	for _, v := range []int{best - 1, best + 1} {
		if v >= 0 && v < rowsPerBank {
			victims = append(victims, v)
		}
	}
	return victims
}

// trrState is a TRR engine's observable state: the tracked {row: count} set
// of a trrEngine, whose slot order is not state, or the engine itself.
func trrState(d trrDefense) any {
	if e, ok := d.(*trrEngine); ok {
		counts := make(map[int]int, len(e.slots))
		for _, s := range e.slots {
			counts[s.row] = s.count
		}
		return counts
	}
	return d
}

// TestTRRSlotsMatchMapOracle drives the slot tracker and the map oracle with
// the same seeded command streams, at capacities 1, 4 and 16: aggressors
// hammered again and again, counts that tie, floods of distinct decoy rows,
// and REF at random points. After every command the two must track the same
// rows at the same counts, and every REF must name the same victims.
func TestTRRSlotsMatchMapOracle(t *testing.T) {
	const rowsPerBank = 64
	for _, capacity := range []int{1, 4, 16} {
		for seed := range uint64(8) {
			s := rng.New(seed).Derive("trr-oracle", capacity)
			e, oracle := newTRREngine(capacity), newMapTRR(capacity)
			if cap(e.slots) != capacity {
				t.Fatalf("capacity %d: %d slots", capacity, cap(e.slots))
			}
			aggressors := []int{0, 1, 31, 32, rowsPerBank - 1}
			decoy, refs := rowsPerBank, 0
			for step := range 4000 {
				what := ""
				switch k := s.Intn(20); {
				case k == 0:
					what = "REF"
					got, want := e.victimsToRefresh(rowsPerBank), oracle.victimsToRefresh(rowsPerBank)
					if !slices.Equal(got, want) {
						t.Fatalf("capacity %d seed %d step %d: REF refreshes %v, oracle %v", capacity, seed, step, got, want)
					}
					refs++
				case k < 4: // a flood of distinct decoys, one activation each
					for range 1 + s.Intn(3*capacity) {
						e.observeActivations(decoy, 1)
						oracle.observeActivations(decoy, 1)
						decoy++
					}
					what = "decoys"
				default: // an aggressor, at a count drawn from a few equal values
					row, count := aggressors[s.Intn(len(aggressors))], []int{1, 2, 2, 8, 100}[s.Intn(5)]
					e.observeActivations(row, count)
					oracle.observeActivations(row, count)
					what = fmt.Sprintf("%d ACTs of row %d", count, row)
				}
				if got := trrState(e); !reflect.DeepEqual(got, oracle.counts) {
					t.Fatalf("capacity %d seed %d step %d (%s): tracks %v, oracle %v", capacity, seed, step, what, got, oracle.counts)
				}
				if len(e.slots) > capacity || cap(e.slots) != capacity {
					t.Fatalf("capacity %d seed %d step %d: %d of %d slots", capacity, seed, step, len(e.slots), cap(e.slots))
				}
			}
			if refs == 0 || len(oracle.counts) == 0 {
				t.Fatalf("capacity %d seed %d: %d REFs, %d rows tracked at the end", capacity, seed, refs, len(oracle.counts))
			}
		}
	}
}

// TestTRRObserveAllocsFree pins that tracking allocates nothing: hits, free
// slots, decrements and evictions all stay within the slots made once.
func TestTRRObserveAllocsFree(t *testing.T) {
	e := newTRREngine(4)
	row := 0
	if a := testing.AllocsPerRun(100, func() {
		e.observeActivations(row%7, 1+row%3)
		e.observeActivations(1000+row, 1)
		row++
	}); a != 0 {
		t.Errorf("observeActivations allocates %v times per call pair, want 0", a)
	}
}
