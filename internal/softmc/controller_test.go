package softmc

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
)

func testGeometry() physics.Geometry {
	return physics.Geometry{Banks: 2, RowsPerBank: 2048, RowBytes: 1024, SubarrayRows: 512}
}

func newCtrl(t *testing.T, name string) *Controller {
	t.Helper()
	p, ok := physics.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return New(dram.NewModule(p, testGeometry(), 7, dram.WithScheme(mapping.Direct{})))
}

func TestInitializeAndReadRow(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.InitializeRow(0, 10, 0xAA); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadRow(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != c.Module().Geometry().RowBytes {
		t.Fatalf("row length %d", len(data))
	}
	for i, b := range data {
		if b != 0xAA {
			t.Fatalf("byte %d = %#x, want 0xAA", i, b)
		}
	}
}

// TestCountRowSafeMatchesReadRowSafe drives two controllers of one device
// instance with the same commands and, in each row state, counts the row on
// one and reads it on the other: the count must be the read's mismatch
// count, and both clocks must agree. The states cover hammer flips alone,
// retention flips alone and both, a programmed tRCD override, a
// burst-written row, a never-written row and a fill that does not match.
func TestCountRowSafeMatchesReadRowSafe(t *testing.T) {
	var twins [2]*Controller
	for i := range twins {
		twins[i] = newCtrl(t, "B6")
		twins[i].Module().SetVPP(twins[i].Module().Profile().VPPMin)
	}
	each := func(cmd func(c *Controller) error) {
		t.Helper()
		for _, c := range twins {
			if err := cmd(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls, flipped := 0, 0
	check := func(row int, fill byte) {
		t.Helper()
		counter, reader := twins[calls%2], twins[1-calls%2]
		got, err := counter.CountRowSafe(0, row, fill)
		if err != nil {
			t.Fatal(err)
		}
		data, err := reader.ReadRowSafe(0, row)
		if err != nil {
			t.Fatal(err)
		}
		if want := pattern.Mismatch(data, fill); got != want {
			t.Fatalf("state %d, row %d against %#x: CountRowSafe %d, ReadRowSafe mismatches %d", calls, row, fill, got, want)
		}
		if counter.Now() != reader.Now() || counter.Module().Now() != reader.Module().Now() {
			t.Fatalf("state %d: clocks %d/%d after CountRowSafe, %d/%d after ReadRowSafe",
				calls, counter.Now(), counter.Module().Now(), reader.Now(), reader.Module().Now())
		}
		if got > 0 {
			flipped++
		}
		calls++
	}
	hammer := func(row int, fill byte, hc int) {
		each(func(c *Controller) error { return c.InitializeRow(0, row, fill) })
		each(func(c *Controller) error { return c.HammerDoubleSided(0, row-1, row+1, hc) })
	}
	for _, hc := range []int{0, 300_000, 1_000_000} {
		for _, waitMS := range []float64{0, 64, 2000, 16000} {
			hammer(200, 0xCC, hc)
			each(func(c *Controller) error { return c.WaitMS(waitMS) })
			check(200, 0xCC)
			check(200, 0xCC)
		}
	}
	each(func(c *Controller) error { return c.SetTRCD(6) })
	hammer(300, 0x33, 300_000)
	check(300, 0x33)
	each(func(c *Controller) error { c.ResetTiming(); return nil })
	hammer(400, 0xFF, 300_000)
	each(func(c *Controller) error {
		if err := c.Module().Activate(c.Now(), 0, 400); err != nil {
			return err
		}
		return c.Module().Write(c.Now()+dram.NSToPS(15), 0, 7, bytes.Repeat([]byte{0x0F}, dram.BurstBytes))
	})
	each(func(c *Controller) error {
		c.now += dram.NSToPS(50)
		return c.Module().Precharge(c.Now(), 0)
	})
	check(400, 0xFF)
	hammer(500, 0xAA, 300_000)
	check(500, 0x55)
	each(func(c *Controller) error { return c.HammerDoubleSided(0, 599, 601, 1_000_000) })
	check(600, 0x00)
	if flipped < calls/2 || flipped == calls {
		t.Fatalf("%d of %d states read back flips; the comparison proves little", flipped, calls)
	}
	if _, err := twins[0].CountRowSafe(0, 1<<20, 0); err == nil {
		t.Fatal("out-of-range row counted without error")
	}
}

// TestSweepColumns sweeps a row at nominal timing and VPP, where every
// column reads back clean, and then reads the row back intact.
func TestSweepColumns(t *testing.T) {
	c := newCtrl(t, "A3")
	col, err := c.SweepColumns(0, 11, 0x55)
	if err != nil {
		t.Fatal(err)
	}
	if col != -1 {
		t.Fatalf("column %d faulty at nominal timing and VPP", col)
	}
	data, err := c.ReadRow(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if n := pattern.Mismatch(data, 0x55); n != 0 {
		t.Fatalf("%d bits flipped in the swept row", n)
	}
	if _, err := c.SweepColumns(0, 1<<20, 0x55); err == nil {
		t.Fatal("out-of-range row swept without error")
	}
}

// TestAlg2ColumnStepAllocsFree sweeps a row with Alg. 2's column loop at
// 8 KiB rows, once at a latency where no column can fail and once inside
// the row's tRCD requirement, and asserts a steady-state sweep allocates
// nothing.
func TestAlg2ColumnStepAllocsFree(t *testing.T) {
	p, _ := physics.ProfileByName("A0")
	for _, tc := range []struct {
		trcd   float64
		faulty bool
	}{{30, false}, {9, true}} {
		c := New(dram.NewModule(p, physics.FullGeometry(), 2022))
		c.Module().SetVPP(p.VPPMin)
		if err := c.SetTRCD(tc.trcd); err != nil {
			t.Fatal(err)
		}
		sweep := func() {
			col, err := c.SweepColumns(0, 1000, 0xAA)
			if err != nil || (col >= 0) != tc.faulty {
				t.Fatalf("tRCD %v ns: column %d, err %v", tc.trcd, col, err)
			}
		}
		sweep() // the first sweep creates the row and samples its physics
		if a := testing.AllocsPerRun(100, sweep); a != 0 {
			t.Errorf("tRCD %v ns: SweepColumns allocates %v times in steady state, want 0", tc.trcd, a)
		}
	}
}

// perCommandQuantize is the command quantum rounding as each command
// applied it to its own latency before the controller kept its timing
// quantized once.
func perCommandQuantize(ns float64) float64 {
	q := physics.CommandQuantumNS
	return math.Ceil(ns/q-1e-9) * q
}

func perCommandPS(ns float64) dram.PS { return dram.NSToPS(perCommandQuantize(ns)) }

// TestClockAdvanceMatchesPerCommandQuantize programs every tRCD on the
// command grid from 1.5 to 30 ns, and nominal timing, and checks that
// InitializeRow, ReadRow, ReadRowSafe and CountRowSafe advance the clock by
// the sum of the latencies each command quantized for itself, and
// SweepColumns by that of one InitializeRow and one column access for each
// column it swept. InitializeRow must advance as at nominal timing under
// every override, and a safe read must leave the override programmed.
func TestClockAdvanceMatchesPerCommandQuantize(t *testing.T) {
	c := newCtrl(t, "B3")
	nom := NominalTiming()
	cols := dram.PS(c.Module().Geometry().Columns())
	const bank, row = 0, 40
	sweeps, faulty := 0, 0
	advance := func(what string, want dram.PS, op func() error) {
		t.Helper()
		t0 := c.Now()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := c.Now() - t0; got != want {
			t.Errorf("%s at tRCD %v ns advanced %d ps, want %d", what, c.Timing().TRCD, got, want)
		}
	}
	check := func(programmed float64) {
		t.Helper()
		trcd := perCommandPS(programmed)
		column := trcd + perCommandPS(nom.TRP)
		if rest := nom.TRAS - programmed; rest > 0 {
			column += perCommandPS(rest)
		}
		initRow := perCommandPS(nom.TRCD) + perCommandPS(nom.TRAS) + perCommandPS(nom.TRP)
		sweep := func(what string) {
			t.Helper()
			t0 := c.Now()
			col, err := c.SweepColumns(bank, row, 0x55)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			swept := cols
			if col >= 0 {
				swept = dram.PS(col + 1)
				faulty++
			}
			if got, want := c.Now()-t0, swept*(initRow+column); got != want {
				t.Errorf("%s at tRCD %v ns over %d columns advanced %d ps, want %d", what, c.Timing().TRCD, swept, got, want)
			}
			sweeps++
		}
		advance("InitializeRow", initRow, func() error { return c.InitializeRow(bank, row, 0x55) })
		sweep("SweepColumns")
		advance("ReadRow", trcd+cols*perCommandPS(nom.TCCD)+perCommandPS(nom.TRP),
			func() error { _, err := c.ReadRow(bank, row); return err })
		advance("ReadRowSafe", perCommandPS(safeReadTRCDNS)+cols*perCommandPS(nom.TCCD)+perCommandPS(nom.TRP),
			func() error { _, err := c.ReadRowSafe(bank, row); return err })
		advance("CountRowSafe", perCommandPS(safeReadTRCDNS)+cols*perCommandPS(nom.TCCD)+perCommandPS(nom.TRP),
			func() error { _, err := c.CountRowSafe(bank, row, 0x55); return err })
		sweep("SweepColumns after a safe read")
	}
	check(nom.TRCD)
	for k := 1; k <= 20; k++ {
		ns := float64(k) * physics.CommandQuantumNS
		if err := c.SetTRCD(ns); err != nil {
			t.Fatal(err)
		}
		check(perCommandQuantize(ns))
	}
	c.ResetTiming()
	check(nom.TRCD)
	if faulty == 0 || faulty == sweeps {
		t.Errorf("%d of %d sweeps stopped at a faulty column; want some of them", faulty, sweeps)
	}
}

func TestSetTRCDQuantization(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.SetTRCD(13.0); err != nil {
		t.Fatal(err)
	}
	// 13.0 rounds UP to the next 1.5ns multiple: 13.5.
	if got := c.Timing().TRCD; got != 13.5 {
		t.Errorf("tRCD = %v, want 13.5", got)
	}
	if err := c.SetTRCD(12.0); err != nil {
		t.Fatal(err)
	}
	if got := c.Timing().TRCD; got != 12.0 {
		t.Errorf("tRCD = %v, want 12.0 (already on grid)", got)
	}
	if err := c.SetTRCD(0.5); !errors.Is(err, ErrTimingOutOfRange) {
		t.Errorf("tiny tRCD err = %v", err)
	}
	if err := c.SetTRCD(500); !errors.Is(err, ErrTimingOutOfRange) {
		t.Errorf("huge tRCD err = %v", err)
	}
}

func TestResetTiming(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.SetTRCD(6.0); err != nil {
		t.Fatal(err)
	}
	c.ResetTiming()
	if c.Timing() != NominalTiming() {
		t.Errorf("timing after reset = %+v", c.Timing())
	}
}

func TestClockAdvances(t *testing.T) {
	c := newCtrl(t, "A3")
	t0 := c.Now()
	if err := c.InitializeRow(0, 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= t0 {
		t.Error("clock did not advance over InitializeRow")
	}
	t1 := c.Now()
	if err := c.WaitMS(5); err != nil {
		t.Fatal(err)
	}
	if got := c.Now() - t1; got != dram.MSToPS(5) {
		t.Errorf("WaitMS advanced %d ps, want %d", got, dram.MSToPS(5))
	}
	if err := c.WaitMS(-1); !errors.Is(err, ErrTimingOutOfRange) {
		t.Errorf("negative wait err = %v", err)
	}
}

func TestHammerDoubleSidedFlipsVictim(t *testing.T) {
	c := newCtrl(t, "B0")
	victim, aggLo, aggHi := 100, 99, 101
	for _, r := range []int{victim, aggLo, aggHi} {
		fill := byte(0x00)
		if r == victim {
			fill = 0xFF
		}
		if err := c.InitializeRow(0, r, fill); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.HammerDoubleSided(0, aggLo, aggHi, 150000); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadRow(0, victim)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, b := range data {
		x := b ^ 0xFF
		for x != 0 {
			x &= x - 1
			flips++
		}
	}
	if flips == 0 {
		t.Error("no flips after 150K double-sided hammers")
	}
}

// TestShortTRCDReadCorrupts sweeps a failing module's row at VPPmin with a
// 3 ns tRCD, far inside its requirement: some column must read back
// corrupted.
func TestShortTRCDReadCorrupts(t *testing.T) {
	c := newCtrl(t, "A0")
	c.Module().SetVPP(c.Module().Profile().VPPMin)
	if err := c.SetTRCD(3.0); err != nil {
		t.Fatal(err)
	}
	col, err := c.SweepColumns(0, 30, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	if col < 0 {
		t.Error("no corruption at tRCD=3ns on a failing module at VPPmin")
	}
}

func TestPingFailsBelowVPPMin(t *testing.T) {
	c := newCtrl(t, "A3")
	c.Module().SetVPP(1.0)
	if err := c.Ping(); !errors.Is(err, dram.ErrNoComm) {
		t.Errorf("ping below VPPmin err = %v, want ErrNoComm", err)
	}
}

func TestHammerObserveVictimsFindsNeighbors(t *testing.T) {
	c := newCtrl(t, "B0")
	window := make([]int, 16)
	for i := range window {
		window[i] = 200 + i
	}
	victims, err := c.HammerObserveVictims(208, 600000, window)
	if err != nil {
		t.Fatal(err)
	}
	// At a high single-count probe, victims may include distance-two rows
	// (disambiguation is ReverseEngineer's job); everything must be within
	// physical distance two, and at least one immediate neighbor must flip.
	foundAdjacent := false
	for _, v := range victims {
		if v < 206 || v > 210 || v == 208 {
			t.Errorf("victim %d outside the blast radius of row 208", v)
		}
		if v == 207 || v == 209 {
			foundAdjacent = true
		}
	}
	if !foundAdjacent {
		t.Errorf("victims = %v: no immediate neighbor flipped", victims)
	}
}

func TestReverseEngineerThroughController(t *testing.T) {
	c := newCtrl(t, "B3")
	window := make([]int, 20)
	for i := range window {
		window[i] = 300 + i
	}
	adj, err := mapping.ReverseEngineer(c, window, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, v := range window[2 : len(window)-2] {
		ns, err := adj.Neighbors(v)
		if err != nil {
			continue
		}
		resolved++
		for _, n := range ns {
			if n != v-1 && n != v+1 {
				t.Errorf("victim %d: non-adjacent aggressor %d survived onset filtering", v, n)
			}
		}
	}
	if resolved < len(window)/2 {
		t.Errorf("only %d/%d interior victims resolved", resolved, len(window)-4)
	}
}

func TestRefreshAdvancesClock(t *testing.T) {
	c := newCtrl(t, "A3")
	t0 := c.Now()
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= t0 {
		t.Error("refresh did not advance the clock")
	}
}

// benchAlg1Readback times one Alg. 1 measurement at 8 KiB rows: the victim
// initialized, a double-sided hammer at the reference count, then the
// victim's mismatch count against its fill, taken by count.
func benchAlg1Readback(b *testing.B, count func(c *Controller, bank, row int, fill byte) (int, error)) {
	p, _ := physics.ProfileByName("B3")
	c := New(dram.NewModule(p, physics.FullGeometry(), 2022))
	const bank, victim, fill = 0, 1000, 0xAA
	sch := c.Module().Scheme()
	phys := sch.LogicalToPhysical(victim)
	lo, hi := sch.PhysicalToLogical(phys-1), sch.PhysicalToLogical(phys+1)
	for _, agg := range []int{lo, hi} {
		if err := c.InitializeRow(bank, agg, ^byte(fill)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := c.InitializeRow(bank, victim, fill); err != nil {
			b.Fatal(err)
		}
		if err := c.HammerDoubleSided(bank, lo, hi, physics.ReferenceHammerCount); err != nil {
			b.Fatal(err)
		}
		if n, err := count(c, bank, victim, fill); err != nil || n == 0 {
			b.Fatalf("count %d, err %v: want flips", n, err)
		}
	}
}

func BenchmarkCountRowSafe(b *testing.B) {
	benchAlg1Readback(b, (*Controller).CountRowSafe)
}

// BenchmarkReadRowSafe is BenchmarkCountRowSafe counted from the row image.
func BenchmarkReadRowSafe(b *testing.B) {
	benchAlg1Readback(b, func(c *Controller, bank, row int, fill byte) (int, error) {
		data, err := c.ReadRowSafe(bank, row)
		return pattern.Mismatch(data, fill), err
	})
}

// BenchmarkSweepColumns times one Alg. 2 sweep of a row at 8 KiB rows on a
// failing module at VPPmin: at a latency where no column can fail, and
// inside the row's tRCD requirement, where the sweep stops at the first
// faulty column.
func BenchmarkSweepColumns(b *testing.B) {
	p, _ := physics.ProfileByName("A0")
	for _, bc := range []struct {
		name string
		trcd float64
	}{{"safe", 30}, {"unsafe", 9}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(dram.NewModule(p, physics.FullGeometry(), 2022))
			c.Module().SetVPP(p.VPPMin)
			if err := c.SetTRCD(bc.trcd); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.SweepColumns(0, 1000, 0xAA); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
