package softmc

import (
	"bytes"
	"errors"
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

// TestRowImageAllFill alternates fill bytes, starting from the zero fill a
// new image already holds, at every preset row size and at one that is not
// a power of two: the doubling fill must cover the whole row each time.
func TestRowImageAllFill(t *testing.T) {
	p, _ := physics.ProfileByName("A3")
	for _, rowBytes := range []int{512, 1024, 2048, 8192, 960} {
		geom := physics.Geometry{Banks: 1, RowsPerBank: 1024, RowBytes: rowBytes, SubarrayRows: 512}
		c := New(dram.NewModule(p, geom, 7, dram.WithScheme(mapping.Direct{})))
		for i, fill := range []byte{0x00, 0xAA, 0x55, 0xAA, 0xFF, 0x00, 0x33} {
			if err := c.InitializeRow(0, i, fill); err != nil {
				t.Fatal(err)
			}
			if len(c.image) != rowBytes {
				t.Fatalf("%d-byte row: image holds %d bytes", rowBytes, len(c.image))
			}
			for j, b := range c.image {
				if b != fill {
					t.Fatalf("%d-byte row, fill %#x: image byte %d = %#x", rowBytes, fill, j, b)
				}
			}
			data, err := c.ReadRowSafe(0, i)
			if err != nil {
				t.Fatal(err)
			}
			for j, b := range data {
				if b != fill {
					t.Fatalf("%d-byte row, fill %#x: read byte %d = %#x", rowBytes, fill, j, b)
				}
			}
		}
	}
}

// TestAppendRowSafeMatchesReadRowSafe reads the same row state into a
// reused buffer, after a prefix, and through the allocating form.
func TestAppendRowSafeMatchesReadRowSafe(t *testing.T) {
	c := newCtrl(t, "B3")
	if err := c.InitializeRow(0, 200, 0xCC); err != nil {
		t.Fatal(err)
	}
	if err := c.InitializeRow(0, 199, 0x33); err != nil {
		t.Fatal(err)
	}
	if err := c.InitializeRow(0, 201, 0x33); err != nil {
		t.Fatal(err)
	}
	if err := c.HammerDoubleSided(0, 199, 201, 300000); err != nil {
		t.Fatal(err)
	}
	want, err := c.ReadRowSafe(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := pattern.ThickCC.CountMismatch(want); got == 0 {
		t.Fatal("hammered row read back clean; the comparison proves nothing")
	}
	buf := make([]byte, 3, 3+len(want))
	got, err := c.AppendRowSafe(buf, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] || !bytes.Equal(got[3:], want) {
		t.Fatal("AppendRowSafe did not append the row image to dst in place")
	}
	if _, err := c.AppendRowSafe(got[:0], 0, 1<<20); err == nil {
		t.Fatal("out-of-range row read without error")
	}
}

func TestReadColumn(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.InitializeRow(0, 11, 0x55); err != nil {
		t.Fatal(err)
	}
	d, err := c.ReadColumn(0, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != dram.BurstBytes {
		t.Fatalf("burst length %d", len(d))
	}
	for _, b := range d {
		if b != 0x55 {
			t.Fatalf("corrupted burst byte %#x", b)
		}
	}
	// The burst lives in the controller's buffer: an Alg. 2 access in
	// steady state allocates nothing.
	if a := testing.AllocsPerRun(100, func() {
		if _, err := c.ReadColumn(0, 11, 3); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("ReadColumn allocates %v times per access, want 0", a)
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

func TestShortTRCDReadCorrupts(t *testing.T) {
	c := newCtrl(t, "A0")
	c.Module().SetVPP(c.Module().Profile().VPPMin)
	if err := c.InitializeRow(0, 30, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTRCD(3.0); err != nil {
		t.Fatal(err)
	}
	corrupt := false
	for col := 0; col < c.Module().Geometry().Columns() && !corrupt; col++ {
		d, err := c.ReadColumn(0, 30, col)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range d {
			if b != 0xAA {
				corrupt = true
				break
			}
		}
		if err := c.InitializeRow(0, 30, 0xAA); err != nil {
			t.Fatal(err)
		}
	}
	if !corrupt {
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
