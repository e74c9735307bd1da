package dram

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
)

func testGeometry() physics.Geometry {
	return physics.Geometry{Banks: 2, RowsPerBank: 2048, RowBytes: 1024, SubarrayRows: 512}
}

func newTestModule(t *testing.T, name string, opts ...Option) *Module {
	t.Helper()
	p, ok := physics.ProfileByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return NewModule(p, testGeometry(), 42, opts...)
}

// initRow opens, fills, and closes a row with the given pattern byte.
func initRow(t *testing.T, m *Module, at PS, bank, row int, fill byte) PS {
	t.Helper()
	if err := m.Activate(at, bank, row); err != nil {
		t.Fatalf("activate row %d: %v", row, err)
	}
	at += NSToPS(physics.TRCDNominalNS)
	if err := m.WriteRow(at, bank, row, fill); err != nil {
		t.Fatalf("write row %d: %v", row, err)
	}
	at += NSToPS(physics.TRASNominalNS)
	if err := m.Precharge(at, bank); err != nil {
		t.Fatalf("precharge: %v", err)
	}
	return at + NSToPS(physics.TRPNominalNS)
}

// readRow reads a full row with nominal timing and returns the data.
func readRow(t *testing.T, m *Module, at PS, bank, row int) ([]byte, PS) {
	t.Helper()
	if err := m.Activate(at, bank, row); err != nil {
		t.Fatalf("activate for read: %v", err)
	}
	at += NSToPS(physics.TRCDNominalNS)
	out := make([]byte, 0, m.Geometry().RowBytes)
	for col := 0; col < m.Geometry().Columns(); col++ {
		var err error
		if out, err = m.Read(out, at, bank, col); err != nil {
			t.Fatalf("read col %d: %v", col, err)
		}
		at += NSToPS(5)
	}
	if err := m.Precharge(at, bank); err != nil {
		t.Fatalf("precharge after read: %v", err)
	}
	return out, at + NSToPS(physics.TRPNominalNS)
}

func countFlips(data []byte, fill byte) int {
	n := 0
	for _, b := range data {
		x := b ^ fill
		for x != 0 {
			x &= x - 1
			n++
		}
	}
	return n
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newTestModule(t, "A3")
	at := initRow(t, m, 0, 0, 100, 0xAA)
	data, _ := readRow(t, m, at, 0, 100)
	if flips := countFlips(data, 0xAA); flips != 0 {
		t.Errorf("clean round trip has %d flips", flips)
	}
}

func TestProtocolErrors(t *testing.T) {
	m := newTestModule(t, "A3")
	if err := m.Activate(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Activate(NSToPS(10), 0, 2); !errors.Is(err, ErrBankOpen) {
		t.Errorf("double activate err = %v, want ErrBankOpen", err)
	}
	if err := m.Precharge(NSToPS(50), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(nil, NSToPS(60), 0, 0); !errors.Is(err, ErrBankClosed) {
		t.Errorf("read on closed bank err = %v, want ErrBankClosed", err)
	}
	if err := m.Write(NSToPS(70), 0, 0, make([]byte, BurstBytes)); !errors.Is(err, ErrBankClosed) {
		t.Errorf("write on closed bank err = %v, want ErrBankClosed", err)
	}
	if err := m.Activate(NSToPS(80), 9, 0); !errors.Is(err, ErrBadAddress) {
		t.Errorf("bad bank err = %v", err)
	}
	if err := m.Activate(NSToPS(90), 0, 1<<30); !errors.Is(err, ErrBadAddress) {
		t.Errorf("bad row err = %v", err)
	}
	if err := m.Activate(NSToPS(5), 0, 1); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("time regression err = %v", err)
	}
}

func TestNoCommBelowVPPMin(t *testing.T) {
	m := newTestModule(t, "A3") // VPPmin 1.4
	m.SetVPP(1.3)
	if m.Responds() {
		t.Error("module responds below VPPmin")
	}
	if err := m.Activate(NSToPS(1), 0, 0); !errors.Is(err, ErrNoComm) {
		t.Errorf("err = %v, want ErrNoComm", err)
	}
	m.SetVPP(1.4)
	if !m.Responds() {
		t.Error("module should respond at VPPmin")
	}
}

// TestRespondsAtVPPMinOnEveryPreset pins Responds at the module's VPPmin
// and one supply step (1 mV) below it, for every module in the catalog.
func TestRespondsAtVPPMinOnEveryPreset(t *testing.T) {
	for _, p := range physics.Profiles() {
		m := NewModule(p, testGeometry(), 42)
		vmin := m.Profile().VPPMin
		m.SetVPP(vmin)
		if !m.Responds() {
			t.Errorf("%s: no response at VPPmin %v", p.Name, vmin)
		}
		m.SetVPP(vmin - 0.001)
		if m.Responds() {
			t.Errorf("%s: responds at %v, 1 mV below VPPmin %v", p.Name, m.VPP(), vmin)
		}
	}
}

func TestReadRangeErrors(t *testing.T) {
	m := newTestModule(t, "A3")
	cols := m.Geometry().Columns()
	if err := m.Activate(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	at := NSToPS(20)
	for _, c := range []struct{ col, n int }{{-1, 2}, {0, 0}, {0, cols + 1}, {cols - 1, 2}, {cols, 1}} {
		if _, err := m.ReadRange(nil, at, NSToPS(5), 0, c.col, c.n); !errors.Is(err, ErrBadAddress) {
			t.Errorf("%d columns from %d: err = %v, want ErrBadAddress", c.n, c.col, err)
		}
		if _, err := m.CountRange(at, NSToPS(5), 0, c.col, c.n, 0); !errors.Is(err, ErrBadAddress) {
			t.Errorf("count of %d columns from %d: err = %v, want ErrBadAddress", c.n, c.col, err)
		}
	}
	if _, err := m.ReadRange(nil, at, -1, 0, 0, 2); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("negative burst step: err = %v, want ErrTimeRegression", err)
	}
	if _, err := m.CountRange(at, -1, 0, 0, 2, 0); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("count with a negative burst step: err = %v, want ErrTimeRegression", err)
	}
	got, err := m.ReadRange([]byte{7}, at, NSToPS(5), 0, 3, 4)
	if err != nil || len(got) != 1+4*BurstBytes || got[0] != 7 {
		t.Fatalf("ReadRange appended %d bytes (err %v), want 1 kept and %d read", len(got), err, 4*BurstBytes)
	}
	if want := at + 3*NSToPS(5); m.Now() != want {
		t.Errorf("module at %d ps after the row call, want the last burst's %d", m.Now(), want)
	}
	if err := m.Precharge(m.Now(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadRange(nil, m.Now(), NSToPS(5), 0, 0, 2); !errors.Is(err, ErrBankClosed) {
		t.Errorf("row call on a closed bank: err = %v, want ErrBankClosed", err)
	}
	if _, err := m.CountRange(m.Now(), NSToPS(5), 0, 0, 2, 0); !errors.Is(err, ErrBankClosed) {
		t.Errorf("row count on a closed bank: err = %v, want ErrBankClosed", err)
	}
}

func TestSetVPPQuantizedToMillivolts(t *testing.T) {
	m := newTestModule(t, "A3")
	m.SetVPP(2.1234567)
	if got := m.VPP(); got != 2.123 {
		t.Errorf("VPP = %v, want 2.123", got)
	}
}

func TestDoubleSidedHammerCausesFlips(t *testing.T) {
	m := newTestModule(t, "B0") // HCfirst ~7.9K
	sch := m.Scheme()
	// Choose a victim away from boundaries; aggressors are the logical rows
	// physically adjacent to it.
	victimPhys := 100
	victim := sch.PhysicalToLogical(victimPhys)
	aggLo := sch.PhysicalToLogical(victimPhys - 1)
	aggHi := sch.PhysicalToLogical(victimPhys + 1)

	at := initRow(t, m, 0, 0, victim, 0xFF)
	at = initRow(t, m, at, 0, aggLo, 0x00)
	at = initRow(t, m, at, 0, aggHi, 0x00)

	const hc = 60000
	if err := m.ActivateMany(at, 0, aggLo, hc); err != nil {
		t.Fatal(err)
	}
	if err := m.ActivateMany(m.Now(), 0, aggHi, hc); err != nil {
		t.Fatal(err)
	}
	data, _ := readRow(t, m, m.Now(), 0, victim)
	if flips := countFlips(data, 0xFF); flips == 0 {
		t.Error("no flips after 60K double-sided hammers on B0")
	}
}

func TestHammerFlipsGrowWithCount(t *testing.T) {
	m := newTestModule(t, "B0")
	sch := m.Scheme()
	victim := sch.PhysicalToLogical(200)
	aggLo := sch.PhysicalToLogical(199)
	aggHi := sch.PhysicalToLogical(201)

	measure := func(hc int) int {
		at := initRow(t, m, m.Now(), 0, victim, 0xFF)
		at = initRow(t, m, at, 0, aggLo, 0x00)
		at = initRow(t, m, at, 0, aggHi, 0x00)
		if err := m.ActivateMany(at, 0, aggLo, hc); err != nil {
			t.Fatal(err)
		}
		if err := m.ActivateMany(m.Now(), 0, aggHi, hc); err != nil {
			t.Fatal(err)
		}
		data, _ := readRow(t, m, m.Now(), 0, victim)
		return countFlips(data, 0xFF)
	}
	low, high := measure(20000), measure(300000)
	if high <= low {
		t.Errorf("flips at 300K (%d) not above flips at 20K (%d)", high, low)
	}
}

func TestRewriteClearsHammerDamage(t *testing.T) {
	m := newTestModule(t, "B0")
	sch := m.Scheme()
	victim := sch.PhysicalToLogical(300)
	agg := sch.PhysicalToLogical(299)
	aggHi := sch.PhysicalToLogical(301)

	at := initRow(t, m, 0, 0, victim, 0xFF)
	at = initRow(t, m, at, 0, agg, 0x00)
	at = initRow(t, m, at, 0, aggHi, 0x00)
	if err := m.ActivateMany(at, 0, agg, 300000); err != nil {
		t.Fatal(err)
	}
	if err := m.ActivateMany(m.Now(), 0, aggHi, 300000); err != nil {
		t.Fatal(err)
	}
	// Re-initialize the victim: damage must be gone.
	at = initRow(t, m, m.Now(), 0, victim, 0xFF)
	data, _ := readRow(t, m, at, 0, victim)
	if flips := countFlips(data, 0xFF); flips != 0 {
		t.Errorf("%d flips survived a full-row rewrite", flips)
	}
}

func TestSingleSidedWeakerThanDoubleSided(t *testing.T) {
	m := newTestModule(t, "B0")
	sch := m.Scheme()

	run := func(victimPhys int, double bool, hc int) int {
		victim := sch.PhysicalToLogical(victimPhys)
		aggLo := sch.PhysicalToLogical(victimPhys - 1)
		aggHi := sch.PhysicalToLogical(victimPhys + 1)
		at := initRow(t, m, m.Now(), 0, victim, 0xFF)
		at = initRow(t, m, at, 0, aggLo, 0x00)
		at = initRow(t, m, at, 0, aggHi, 0x00)
		if err := m.ActivateMany(at, 0, aggLo, hc); err != nil {
			t.Fatal(err)
		}
		if double {
			if err := m.ActivateMany(m.Now(), 0, aggHi, hc); err != nil {
				t.Fatal(err)
			}
		}
		data, _ := readRow(t, m, m.Now(), 0, victim)
		return countFlips(data, 0xFF)
	}

	// Aggregate across several victims: per-row HCfirst varies widely, so a
	// single victim may be too strong to flip either way.
	const hc = 100000
	ds, ss := 0, 0
	for i := 0; i < 6; i++ {
		ds += run(400+20*i, true, hc)
		ss += run(410+20*i, false, hc)
	}
	if ds == 0 {
		t.Fatal("double-sided attack flipped nothing; raise the hammer count")
	}
	if ss >= ds {
		t.Errorf("single-sided flips (%d) not below double-sided (%d)", ss, ds)
	}
}

func TestReducedVPPReducesHammerFlips(t *testing.T) {
	// Obsv. 1 at device level: B3 (strong responder) flips fewer bits at
	// VPPmin than at nominal for the same hammer count.
	m := newTestModule(t, "B3")
	sch := m.Scheme()

	run := func(victimPhys int, vpp float64) int {
		m.SetVPP(vpp)
		victim := sch.PhysicalToLogical(victimPhys)
		aggLo := sch.PhysicalToLogical(victimPhys - 1)
		aggHi := sch.PhysicalToLogical(victimPhys + 1)
		at := initRow(t, m, m.Now(), 0, victim, 0xFF)
		at = initRow(t, m, at, 0, aggLo, 0x00)
		at = initRow(t, m, at, 0, aggHi, 0x00)
		if err := m.ActivateMany(at, 0, aggLo, 300000); err != nil {
			t.Fatal(err)
		}
		if err := m.ActivateMany(m.Now(), 0, aggHi, 300000); err != nil {
			t.Fatal(err)
		}
		data, _ := readRow(t, m, m.Now(), 0, victim)
		return countFlips(data, 0xFF)
	}

	var nomTotal, lowTotal int
	for _, phys := range []int{100, 110, 120, 130, 140} {
		nomTotal += run(phys, 2.5)
		lowTotal += run(phys+300, 1.6)
	}
	if lowTotal >= nomTotal {
		t.Errorf("flips at VPP=1.6 (%d) not below nominal (%d) on B3", lowTotal, nomTotal)
	}
}

func TestSubarrayBoundaryIsolation(t *testing.T) {
	m := newTestModule(t, "B0", WithScheme(mapping.Direct{}))
	// Physical row 512 is the first row of subarray 1; row 511 the last of
	// subarray 0. Hammering 512 must not disturb 511.
	at := initRow(t, m, 0, 0, 511, 0xFF)
	at = initRow(t, m, at, 0, 510, 0x00)
	if err := m.ActivateMany(at, 0, 512, 400000); err != nil {
		t.Fatal(err)
	}
	data, _ := readRow(t, m, m.Now(), 0, 511)
	if flips := countFlips(data, 0xFF); flips != 0 {
		t.Errorf("%d flips crossed a subarray boundary", flips)
	}
}

// TestActivateDisturbsOnlySubarrayNeighbors activates every row of small
// banks, at subarray and bank edges alike, and checks the exposure each
// activation leaves against the pairwise same-subarray predicate the
// neighbor bounds replaced.
func TestActivateDisturbsOnlySubarrayNeighbors(t *testing.T) {
	sameSubarray := func(a, b, sub int) bool {
		if sub <= 0 {
			return true
		}
		return a/sub == b/sub
	}
	p, _ := physics.ProfileByName("B0")
	for _, g := range []struct{ rows, sub int }{{40, 0}, {40, 1}, {40, 8}, {43, 8}, {40, 3}, {40, 40}, {40, 64}} {
		geom := physics.Geometry{Banks: 1, RowsPerBank: g.rows, RowBytes: 64, SubarrayRows: g.sub}
		m := NewModule(p, geom, 42, WithScheme(mapping.Direct{}))
		for phys := 0; phys < g.rows; phys++ {
			m.banks[0].rows = physics.NewRowPages[rowState](g.rows)
			if err := m.ActivateMany(m.Now(), 0, phys, 1); err != nil {
				t.Fatal(err)
			}
			for r := -2; r < g.rows+2; r++ { // two rows past either bank edge
				var want rowState
				if r >= 0 && r < g.rows && sameSubarray(phys, r, g.sub) {
					switch r - phys {
					case -1:
						want.hammerHi = 1
					case 1:
						want.hammerLo = 1
					case -2, 2:
						want.hammerD2 = 1
					}
				}
				var got rowState
				if rs := m.banks[0].rows.Lookup(r); rs != nil {
					got = *rs
				}
				if got.hammerLo != want.hammerLo || got.hammerHi != want.hammerHi || got.hammerD2 != want.hammerD2 {
					t.Errorf("%d rows, subarrays of %d: ACT of row %d left row %d at lo/hi/d2 %v/%v/%v, want %v/%v/%v",
						g.rows, g.sub, phys, r, got.hammerLo, got.hammerHi, got.hammerD2, want.hammerLo, want.hammerHi, want.hammerD2)
				}
			}
		}
	}
}

func TestRetentionFlipsAfterLongWait(t *testing.T) {
	m := newTestModule(t, "C0", WithScheme(mapping.Direct{}))
	m.SetTemperature(physics.RetentionTestTempC)
	total := 0
	at := PS(0)
	for row := 50; row < 80; row++ {
		at = initRow(t, m, at, 0, row, 0xAA)
	}
	if err := m.Wait(at + MSToPS(16000)); err != nil {
		t.Fatal(err)
	}
	for row := 50; row < 80; row++ {
		data, next := readRow(t, m, m.Now(), 0, row)
		at = next
		total += countFlips(data, 0xAA)
	}
	if total == 0 {
		t.Error("no retention flips after 16s at 80C")
	}
}

func TestNoRetentionFlipsWithin30ms(t *testing.T) {
	// The paper keeps each RowHammer test under 30 ms so retention cannot
	// interfere (§4.1); the device must honor that.
	m := newTestModule(t, "C0", WithScheme(mapping.Direct{}))
	m.SetTemperature(physics.RetentionTestTempC)
	at := initRow(t, m, 0, 0, 60, 0xAA)
	if err := m.Wait(at + MSToPS(30)); err != nil {
		t.Fatal(err)
	}
	data, _ := readRow(t, m, m.Now(), 0, 60)
	if flips := countFlips(data, 0xAA); flips != 0 {
		t.Errorf("%d retention flips within 30ms", flips)
	}
}

func TestRefreshRowLatchesFlipsAndResetsClock(t *testing.T) {
	m := newTestModule(t, "B0", WithScheme(mapping.Direct{}))
	at := initRow(t, m, 0, 0, 700, 0xFF)
	at = initRow(t, m, at, 0, 699, 0x00)
	at = initRow(t, m, at, 0, 701, 0x00)
	if err := m.ActivateMany(at, 0, 699, 300000); err != nil {
		t.Fatal(err)
	}
	if err := m.ActivateMany(m.Now(), 0, 701, 300000); err != nil {
		t.Fatal(err)
	}
	before, next := readRow(t, m, m.Now(), 0, 700)
	flipsBefore := countFlips(before, 0xFF)
	if flipsBefore == 0 {
		t.Fatal("expected hammer flips before refresh")
	}
	if err := m.RefreshRow(next, 0, 700); err != nil {
		t.Fatal(err)
	}
	after, _ := readRow(t, m, m.Now(), 0, 700)
	if !bytes.Equal(before, after) {
		t.Error("refresh changed observable data (flips must latch, not heal)")
	}
}

// TestWriteRowFillsWholeRow fills one row again and again, at every preset
// row size and at one that is not a power of two: repeated fills, new
// fills, a fill after a burst write and a fill after a refresh that latched
// flips. Every readback must be the whole fill.
func TestWriteRowFillsWholeRow(t *testing.T) {
	p, _ := physics.ProfileByName("B0")
	const bank, row = 0, 200
	for _, rowBytes := range []int{512, 1024, 2048, 8192, 960} {
		geom := physics.Geometry{Banks: 1, RowsPerBank: 1024, RowBytes: rowBytes, SubarrayRows: 512}
		m := NewModule(p, geom, 42, WithScheme(mapping.Direct{}))
		at := PS(0)
		fill := func(f byte, after string) {
			t.Helper()
			at = initRow(t, m, at, bank, row, f)
			var data []byte
			data, at = readRow(t, m, at, bank, row)
			if n := countFlips(data, f); n != 0 {
				t.Fatalf("%d-byte row, fill %#x after %s: %d bits read back wrong", rowBytes, f, after, n)
			}
		}
		for _, f := range []byte{0x00, 0x00, 0xAA, 0xAA, 0x55, 0xFF, 0x33, 0x33} {
			fill(f, "a fill")
		}

		// A burst write leaves the row no longer all one byte.
		if err := m.Activate(at, bank, row); err != nil {
			t.Fatal(err)
		}
		at += NSToPS(physics.TRCDNominalNS)
		if err := m.Write(at, bank, m.Geometry().Columns()-1, bytes.Repeat([]byte{0xCC}, BurstBytes)); err != nil {
			t.Fatal(err)
		}
		at += NSToPS(physics.TRASNominalNS)
		if err := m.Precharge(at, bank); err != nil {
			t.Fatal(err)
		}
		fill(0x33, "a burst write")

		// A refresh latches hammer flips into the stored row. They must
		// miss its first byte, or the next fill refills the row because
		// that byte differs.
		at = initRow(t, m, at, bank, row-1, 0x00)
		at = initRow(t, m, at, bank, row+1, 0x00)
		fill(0xFF, "a fill")
		for _, agg := range []int{row - 1, row + 1} {
			if err := m.ActivateMany(at, bank, agg, 100_000); err != nil {
				t.Fatal(err)
			}
			at = m.Now()
		}
		if err := m.RefreshRow(at, bank, row); err != nil {
			t.Fatal(err)
		}
		latched, next := readRow(t, m, m.Now(), bank, row)
		if countFlips(latched, 0xFF) == 0 || latched[0] != 0xFF {
			t.Fatalf("%d-byte row: the refresh latched no flip past the first byte; the next fill proves nothing", rowBytes)
		}
		at = next
		fill(0xFF, "a refresh that latched flips")
	}
}

func TestReadDuringViolatedTRCDCorruptsData(t *testing.T) {
	m := newTestModule(t, "A0", WithScheme(mapping.Direct{})) // tRCD-failing module
	m.SetVPP(m.Profile().VPPMin)
	at := initRow(t, m, 0, 0, 20, 0x55)
	if err := m.Activate(at, 0, 20); err != nil {
		t.Fatal(err)
	}
	// Read immediately (tRCD ~ 3ns), far below the requirement at VPPmin.
	flips := 0
	rt := at + NSToPS(3)
	for col := 0; col < m.Geometry().Columns(); col++ {
		d, err := m.Read(nil, rt, 0, col)
		if err != nil {
			t.Fatal(err)
		}
		flips += countFlips(d, 0x55)
		rt += NSToPS(5)
	}
	if flips == 0 {
		t.Error("no corruption reading far below the tRCD requirement at VPPmin")
	}
}

func TestReadAtNominalTRCDCleanOnPassingModule(t *testing.T) {
	m := newTestModule(t, "A3", WithScheme(mapping.Direct{}))
	m.SetVPP(m.Profile().VPPMin)
	at := initRow(t, m, 0, 0, 21, 0x55)
	data, _ := readRow(t, m, at, 0, 21)
	if flips := countFlips(data, 0x55); flips != 0 {
		t.Errorf("%d flips at nominal tRCD on a passing module", flips)
	}
}

func TestWriteRowValidation(t *testing.T) {
	m := newTestModule(t, "A3")
	if err := m.Activate(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(NSToPS(30), 0, 6, 0x00); !errors.Is(err, ErrBankClosed) {
		t.Errorf("wrong-row write err = %v, want ErrBankClosed", err)
	}
}

func TestRefreshRequiresPrechargedBanks(t *testing.T) {
	m := newTestModule(t, "A3")
	if err := m.Activate(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh(NSToPS(10)); !errors.Is(err, ErrBankOpen) {
		t.Errorf("refresh with open bank err = %v, want ErrBankOpen", err)
	}
}

func TestTRREngineProtectsVictims(t *testing.T) {
	// With TRR enabled and REF commands interleaved, a double-sided attack
	// at a hammer count just above HCfirst is absorbed; with REF starved
	// (the paper's method), the same attack flips bits.
	run := func(withREF bool) int {
		p, _ := physics.ProfileByName("B0")
		m := NewModule(p, testGeometry(), 42, WithTRR(16), WithScheme(mapping.Direct{}))
		at := initRow(t, m, 0, 0, 800, 0xFF)
		at = initRow(t, m, at, 0, 799, 0x00)
		at = initRow(t, m, at, 0, 801, 0x00)
		const rounds, perRound = 50, 400 // 20K per side in bursts
		for i := 0; i < rounds; i++ {
			if err := m.ActivateMany(m.nowOr(at), 0, 799, perRound); err != nil {
				t.Fatal(err)
			}
			if err := m.ActivateMany(m.Now(), 0, 801, perRound); err != nil {
				t.Fatal(err)
			}
			if withREF {
				if err := m.Refresh(m.Now()); err != nil {
					t.Fatal(err)
				}
			}
		}
		data, _ := readRow(t, m, m.Now(), 0, 800)
		return countFlips(data, 0xFF)
	}
	starved := run(false)
	protected := run(true)
	if starved == 0 {
		t.Fatal("REF-starved attack caused no flips; test needs a higher hammer count")
	}
	if protected >= starved {
		t.Errorf("TRR-protected flips (%d) not below starved flips (%d)", protected, starved)
	}
}

// nowOr returns the later of the module clock and t (helper for tests that
// interleave absolute and relative timing).
func (m *Module) nowOr(t PS) PS {
	if m.now > t {
		return m.now
	}
	return t
}

func TestDominantPatternInference(t *testing.T) {
	if patternFromByte(0xAA) != pattern.CheckerAA || patternFromByte(0x33) != pattern.Thick33 {
		t.Error("canonical fill bytes misclassified")
	}
	if patternFromByte(0x7E) != defaultPattern {
		t.Error("unknown fill should map to the default pattern")
	}
}

func TestActivateManyAdvancesTime(t *testing.T) {
	m := newTestModule(t, "A3")
	if err := m.ActivateMany(0, 0, 10, 1000); err != nil {
		t.Fatal(err)
	}
	want := PS(1000) * NSToPS(physics.TRASNominalNS+physics.TRPNominalNS)
	if m.Now() != want {
		t.Errorf("time after 1000 activations = %d, want %d", m.Now(), want)
	}
}

func TestActivateManyZeroCount(t *testing.T) {
	m := newTestModule(t, "A3")
	if err := m.ActivateMany(0, 0, 10, 0); err != nil {
		t.Errorf("zero-count hammer errored: %v", err)
	}
}

// TestRowTableMemoryFollowsTouchedRows touches two rows of every bank at
// paper geometry, each in a page of its own, and bounds what the module
// allocates beyond its physics model by one page and one row state per
// touched row plus the banks' page directories: the row table must grow
// with the rows a study touches, not with the rows a bank has (a pointer per
// row would be 256 KiB per bank on 64-bit).
func TestRowTableMemoryFollowsTouchedRows(t *testing.T) {
	p, _ := physics.ProfileByName("A3")
	geom := physics.FullGeometry()
	allocated := func(f func()) uintptr {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return uintptr(after.TotalAlloc - before.TotalAlloc)
	}
	model := allocated(func() { physics.NewDeviceModel(p, geom, 2022) })
	const perBank = 2
	pages := (geom.RowsPerBank + physics.RowPageRows - 1) / physics.RowPageRows
	row := func(b, i int) int { return (b+i*pages/perBank)%pages*physics.RowPageRows + b }
	var m *Module
	used := allocated(func() {
		m = NewModule(p, geom, 2022)
		for b := range m.banks {
			for i := range perBank {
				m.banks[b].row(row(b, i))
			}
		}
	})
	ptr := unsafe.Sizeof(uintptr(0))
	page := physics.RowPageRows * ptr
	page += page / 4 // the allocator's header and size class
	touched := uintptr(geom.Banks * perBank)
	bound := model + touched*(page+unsafe.Sizeof(rowState{})) + uintptr(geom.Banks*pages)*ptr +
		uintptr(geom.Banks)*unsafe.Sizeof(bankState{}) + unsafe.Sizeof(Module{}) + 4096
	if used > bound {
		t.Errorf("module with %d touched rows allocated %d bytes, want at most %d (model %d)", touched, used, bound, model)
	}
	for b := range m.banks {
		for i := range perBank {
			if m.banks[b].rows.Lookup(row(b, i)) == nil {
				t.Errorf("bank %d: touched row %d has no state", b, row(b, i))
			}
		}
	}
}
