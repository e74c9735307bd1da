package physics

// Row tables: per-row state keyed by (bank, row) in dense, paged storage.
// Every simulated activation looks up its neighbors' state and every read
// its row's physics, so the lookup is two shifts and two loads instead of a
// hash. A bank keeps a directory of page pointers, and a page of
// RowPageRows pointers is allocated when a row in it is first touched: a
// study that touches a few rows per bank pays a few pages, not a pointer per
// row of the bank (256 KiB per bank at 32768 rows on 64-bit).

// rowPageShift sets the page size, RowPageRows = 1 << rowPageShift.
const rowPageShift = 9

// RowPageRows is the number of rows per row-table page: one subarray of
// FullGeometry and DefaultGeometry.
const RowPageRows = 1 << rowPageShift

// rowPage holds the state of RowPageRows consecutive rows.
type rowPage[T any] [RowPageRows]*T

// RowPages is one bank's row table: a directory of pages, nil until a row in
// the page is first touched.
type RowPages[T any] struct {
	dir []*rowPage[T]
}

// NewRowPages returns an empty table with a directory that covers rows
// [0, rows).
func NewRowPages[T any](rows int) RowPages[T] {
	return RowPages[T]{dir: make([]*rowPage[T], (max(rows, 0)+RowPageRows-1)>>rowPageShift)}
}

// Lookup returns the state of row, or nil if it was never created. It never
// allocates.
func (d *RowPages[T]) Lookup(row int) *T {
	p := uint(row) >> rowPageShift
	if p >= uint(len(d.dir)) || d.dir[p] == nil {
		return nil
	}
	return d.dir[p][row&(RowPageRows-1)]
}

// Slot returns the table's slot for row, allocating its page on first touch.
// The caller fills a nil slot. The directory grows for a row past the rows
// it was made for (an address mapping may move a row at the end of a bank
// past it); row must not be negative.
func (d *RowPages[T]) Slot(row int) **T {
	p := row >> rowPageShift
	if p >= len(d.dir) {
		d.grow(p + 1)
	}
	pg := d.dir[p]
	if pg == nil {
		pg = new(rowPage[T]) //detlint:ignore hotalloc one page per RowPageRows rows on first touch, amortized over every later access to them
		d.dir[p] = pg
	}
	return &pg[row&(RowPageRows-1)]
}

// grow extends the directory to n pages.
func (d *RowPages[T]) grow(n int) {
	d.dir = append(d.dir, make([]*rowPage[T], n-len(d.dir))...) //detlint:ignore hotalloc directory growth past the bank's rows, once per table
}

// RowTable is a RowPages per bank.
type RowTable[T any] struct {
	banks []RowPages[T]
}

// NewRowTable returns an empty table for banks banks of rows rows.
func NewRowTable[T any](banks, rows int) RowTable[T] {
	t := RowTable[T]{banks: make([]RowPages[T], max(banks, 0))}
	for i := range t.banks {
		t.banks[i] = NewRowPages[T](rows)
	}
	return t
}

// Lookup returns the state of (bank, row), or nil if it was never created.
func (t *RowTable[T]) Lookup(bank, row int) *T {
	if uint(bank) >= uint(len(t.banks)) {
		return nil
	}
	return t.banks[bank].Lookup(row)
}

// Slot returns the table's slot for (bank, row), allocating its page on
// first touch; bank and row must not be negative.
func (t *RowTable[T]) Slot(bank, row int) **T {
	if bank >= len(t.banks) {
		t.banks = append(t.banks, make([]RowPages[T], bank+1-len(t.banks))...) //detlint:ignore hotalloc bank growth past the geometry, once per table
	}
	return t.banks[bank].Slot(row)
}
