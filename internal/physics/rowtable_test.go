package physics

import "testing"

// TestRowTableSlotsAndLookups pins the table's contract: a slot is stable
// and shared by every later Slot and Lookup of its (bank, row), a row never
// touched looks up nil (negative and out-of-range addresses included), and
// rows or banks past the table's size (an address mapping can move a row
// past the end of a bank) get slots of their own instead of a panic.
func TestRowTableSlotsAndLookups(t *testing.T) {
	tab := NewRowTable[int](2, 1000)
	keys := [][2]int{{0, 0}, {0, 511}, {0, 512}, {1, 999}, {1, 1003}, {1, 5000}, {3, 7}}
	for i, k := range keys {
		if got := tab.Lookup(k[0], k[1]); got != nil {
			t.Fatalf("(%d, %d) looks up %v before it is touched", k[0], k[1], *got)
		}
		v := i
		*tab.Slot(k[0], k[1]) = &v
	}
	for i, k := range keys {
		if got := tab.Lookup(k[0], k[1]); got == nil || *got != i {
			t.Errorf("(%d, %d) looks up %v, want %d", k[0], k[1], got, i)
		}
		if got := *tab.Slot(k[0], k[1]); got == nil || *got != i {
			t.Errorf("(%d, %d) has slot %v, want %d", k[0], k[1], got, i)
		}
	}
	for _, k := range [][2]int{{0, 1}, {0, -1}, {-1, 0}, {1, 513}, {2, 0}, {1, 1 << 20}, {9, 0}} {
		if got := tab.Lookup(k[0], k[1]); got != nil {
			t.Errorf("untouched (%d, %d) looks up %d", k[0], k[1], *got)
		}
	}
}
