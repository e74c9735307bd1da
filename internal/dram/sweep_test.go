package dram

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/dramstudy/rhvpp/internal/physics"
)

// sweepTiming spaces a ColumnSweep step as the controller does at nominal
// timing with activation latency trcd ns, and initRP ns between the
// re-initialization's PRE and the column read's ACT.
func sweepTiming(trcd, initRP float64) SweepTiming {
	return SweepTiming{
		InitRCD: NSToPS(physics.TRCDNominalNS), InitRAS: NSToPS(physics.TRASNominalNS), InitRP: NSToPS(initRP),
		RCD: NSToPS(trcd), Rest: NSToPS(max(physics.TRASNominalNS-trcd, 0)), RP: NSToPS(physics.TRPNominalNS),
	}
}

// sweepByReads is the Alg. 2 column loop ColumnSweep replaces, issued one
// command at a time, with every burst read back through Read and compared
// with fill.
func sweepByReads(m *Module, t PS, st SweepTiming, bank, row int, fill byte) (int, PS, error) {
	want := bytes.Repeat([]byte{fill}, BurstBytes)
	for col := range m.Geometry().Columns() {
		if err := m.Activate(t, bank, row); err != nil {
			return -1, t, err
		}
		t += st.InitRCD
		if err := m.WriteRow(t, bank, row, fill); err != nil {
			return -1, t, err
		}
		t += st.InitRAS
		if err := m.Precharge(t, bank); err != nil {
			return -1, t, err
		}
		t += st.InitRP
		if err := m.Activate(t, bank, row); err != nil {
			return -1, t, err
		}
		t += st.RCD
		burst, err := m.Read(nil, t, bank, col)
		if err != nil {
			return -1, t, err
		}
		t += st.Rest
		if err := m.Precharge(t, bank); err != nil {
			return -1, t, err
		}
		t += st.RP
		if !bytes.Equal(burst, want) {
			return col, t, nil
		}
	}
	return -1, t, nil
}

// stateDiff describes the first difference between the device state of two
// modules of one device instance, or returns "".
func stateDiff(a, b *Module) string {
	if a.now != b.now {
		return fmt.Sprintf("clock %d vs %d", a.now, b.now)
	}
	if !reflect.DeepEqual(trrState(a.trr), trrState(b.trr)) {
		return "TRR engine state"
	}
	for i := range a.banks {
		ba, bb := &a.banks[i], &b.banks[i]
		if ba.openRow != bb.openRow || ba.openedAt != bb.openedAt || ba.refCursor != bb.refCursor {
			return fmt.Sprintf("bank %d: open row %d at %d vs %d at %d", i, ba.openRow, ba.openedAt, bb.openRow, bb.openedAt)
		}
		for phys := -2; phys < a.geom.RowsPerBank+2; phys++ { // two rows past either bank edge
			ra, rb := ba.rows.Lookup(phys), bb.rows.Lookup(phys)
			switch {
			case (ra == nil) != (rb == nil):
				return fmt.Sprintf("bank %d row %d: state %v vs %v", i, phys, ra != nil, rb != nil)
			case ra != nil && !reflect.DeepEqual(*ra, *rb):
				return fmt.Sprintf("bank %d row %d: epoch %d, written at %d, exposure %v/%v/%v vs epoch %d, written at %d, exposure %v/%v/%v",
					i, phys, ra.writeEpoch, ra.lastWrite, ra.hammerLo, ra.hammerHi, ra.hammerD2,
					rb.writeEpoch, rb.lastWrite, rb.hammerLo, rb.hammerHi, rb.hammerD2)
			}
		}
		ca, cb := &ba.read, &bb.read
		if ca.ok != cb.ok || ca.key != cb.key || ca.hammerN != cb.hammerN ||
			ca.hammer.n != cb.hammer.n || ca.retBulk.n != cb.retBulk.n ||
			(ca.hammer.order == nil) != (cb.hammer.order == nil) || (ca.retBulk.order == nil) != (cb.retBulk.order == nil) {
			return fmt.Sprintf("bank %d read cache: key %+v, %d hammer flips, masks of %d and %d cells vs key %+v, %d, %d and %d",
				i, ca.key, ca.hammerN, ca.hammer.n, ca.retBulk.n, cb.key, cb.hammerN, cb.hammer.n, cb.retBulk.n)
		}
	}
	return ""
}

// sweepTwins drives two modules of one device instance with the same
// commands, except that a row sweep runs through ColumnSweep on the first
// and through sweepByReads on the second.
type sweepTwins struct {
	t    *testing.T
	m    [2]*Module
	at   PS
	name string
	seen map[string]int // sweeps by outcome
}

func newSweepTwins(t *testing.T, name string, vpp, tempC float64, opts ...Option) *sweepTwins {
	p, _ := physics.ProfileByName(name)
	r := &sweepTwins{t: t, name: fmt.Sprintf("%s@%.2fV", name, vpp), seen: map[string]int{}}
	for i := range r.m {
		r.m[i] = NewModule(p, physics.FullGeometry(), 2022, opts...)
		r.m[i].SetVPP(vpp)
		r.m[i].SetTemperature(tempC)
	}
	return r
}

// each issues one command to both twins.
func (r *sweepTwins) each(what string, cmd func(m *Module) error) {
	r.t.Helper()
	for _, m := range r.m {
		if err := cmd(m); err != nil {
			r.t.Fatalf("%s: %s: %v", r.name, what, err)
		}
	}
}

func (r *sweepTwins) initRow(bank, row int, fill byte) {
	r.t.Helper()
	r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, row) })
	r.at += NSToPS(physics.TRCDNominalNS)
	r.each("write row", func(m *Module) error { return m.WriteRow(r.at, bank, row, fill) })
	r.at += NSToPS(physics.TRASNominalNS)
	r.each("precharge", func(m *Module) error { return m.Precharge(r.at, bank) })
	r.at += NSToPS(physics.TRPNominalNS)
}

// sweep sweeps a row on both twins and checks that the two return the same
// column and next-command time and leave the same device state.
func (r *sweepTwins) sweep(st SweepTiming, bank, row int, fill byte) {
	r.t.Helper()
	col, next, err := r.m[0].ColumnSweep(r.at, st, bank, row, fill)
	wantCol, wantNext, wantErr := sweepByReads(r.m[1], r.at, st, bank, row, fill)
	what := fmt.Sprintf("%s: bank %d row %d fill %#x, tRCD %d ps, PRE to ACT %d ps", r.name, bank, row, fill, st.RCD, st.InitRP)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		r.t.Fatalf("%s: error %v, command by command %v", what, err, wantErr)
	}
	if col != wantCol || next != wantNext {
		r.t.Fatalf("%s: column %d next at %d, command by command %d at %d", what, col, next, wantCol, wantNext)
	}
	if d := stateDiff(r.m[0], r.m[1]); d != "" {
		r.t.Fatalf("%s: device state differs: %s", what, d)
	}
	if err != nil {
		r.seen["error"]++
		return
	}
	ret, elapsed := &r.m[0].banks[bank].read.ret, msSince(0, st.InitRAS+st.InitRP+st.RCD)
	_, quiet := ret.BulkCountRange(0, elapsed)
	switch {
	case !quiet || len(ret.AppendWeakFailures(nil, elapsed)) > 0:
		if col < 0 {
			r.seen["clean, per command"]++
		} else {
			r.seen["faulty, per command"]++
		}
	case col < 0:
		r.seen["clean"]++
	case col == 0:
		r.seen["column 0"]++
	default:
		r.seen["later column"]++
	}
	r.at = next
}

// disturbAndRead hammers a row and its neighbors at distance one and two,
// waits, issues a REF and reads the five rows back on both twins, which
// must return the same bytes and leave the same device state.
func (r *sweepTwins) disturbAndRead(bank, row int) {
	r.t.Helper()
	m := r.m[0]
	phys := m.Scheme().LogicalToPhysical(row)
	var rows []int // the row last, so its bank's read cache ends on it
	for _, p := range []int{phys - 2, phys - 1, phys + 1, phys + 2, phys} {
		if p >= 0 && p < m.Geometry().RowsPerBank {
			rows = append(rows, m.Scheme().PhysicalToLogical(p))
		}
	}
	for i, lr := range rows {
		r.each("hammer", func(m *Module) error { return m.ActivateMany(r.at, bank, lr, 40_000*(i+1)) })
		r.at = m.Now()
	}
	r.at += MSToPS(2000)
	r.each("refresh", func(m *Module) error { return m.Refresh(r.at) })
	r.at += NSToPS(350)
	for _, lr := range rows {
		var data [2][]byte
		for i, m := range r.m {
			if err := m.Activate(r.at, bank, lr); err != nil {
				r.t.Fatalf("%s: activate: %v", r.name, err)
			}
			var err error
			if data[i], err = m.ReadRange(nil, r.at+NSToPS(30), NSToPS(5), bank, 0, m.Geometry().Columns()); err != nil {
				r.t.Fatalf("%s: read range: %v", r.name, err)
			}
			if err := m.Precharge(m.Now()+NSToPS(5), bank); err != nil {
				r.t.Fatalf("%s: precharge: %v", r.name, err)
			}
		}
		if !bytes.Equal(data[0], data[1]) {
			r.t.Fatalf("%s: bank %d row %d reads back differently after the sweep", r.name, bank, lr)
		}
		r.at = m.Now() + NSToPS(physics.TRPNominalNS)
	}
	if d := stateDiff(r.m[0], r.m[1]); d != "" {
		r.t.Fatalf("%s: device state differs after disturbing row %d: %s", r.name, row, d)
	}
}

// TestColumnSweepMatchesCommands runs, at 8 KiB rows, ColumnSweep on one
// twin and the same Alg. 2 loop command by command on the other, at
// latencies above the row's safe bound, at and around its requirement and
// far below it, on rows never written, burst-written and holding another
// fill, at subarray and bank edges, with either TRR engine, and at a
// spacing long enough that retention can fail between a write and its
// read. Every sweep must return the same column and next-command time and
// leave the same device state, which later hammering, waiting, a REF and
// readback of the row's neighborhood must not tell apart.
func TestColumnSweepMatchesCommands(t *testing.T) {
	geom := physics.FullGeometry()
	seen := map[string]int{}
	for _, c := range []struct {
		name string
		low  bool // at VPPmin, else nominal VPP
		opts []Option
	}{
		{"A0", true, nil},
		{"B3", false, nil},
		{"C0", true, []Option{WithTRR(4)}},
		{"B6", true, []Option{WithSamplingTRR(0.05, 9)}},
	} {
		p, _ := physics.ProfileByName(c.name)
		vpp := physics.VPPNominal
		if c.low {
			vpp = p.VPPMin
		}
		r := newSweepTwins(t, c.name, vpp, physics.RowHammerTestTempC, c.opts...)
		m := r.m[0]
		const bank = 1
		for i, phys := range []int{0, 511, 512, 1000, geom.RowsPerBank - 1} {
			row := m.Scheme().PhysicalToLogical(phys)
			switch i % 3 {
			case 1: // written burst by burst
				r.initRow(bank, row, 0xFF)
				r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, row) })
				r.at += NSToPS(physics.TRCDNominalNS)
				r.each("write", func(m *Module) error { return m.Write(r.at, bank, 5, bytes.Repeat([]byte{0x0F}, BurstBytes)) })
				r.at += NSToPS(physics.TRASNominalNS)
				r.each("precharge", func(m *Module) error { return m.Precharge(r.at, bank) })
				r.at += NSToPS(physics.TRPNominalNS)
			case 2: // another fill, disturbed
				r.initRow(bank, row, 0x33)
				r.disturbAndRead(bank, row)
			}
			reqNS := m.Model().GroundTruthRowTRCDNS(bank, phys, vpp)
			for j, trcd := range []float64{30, reqNS + 1, reqNS + 0.1, reqNS - 0.1, reqNS - 0.4, 1.5} {
				fill := []byte{0xAA, 0x55, 0xCC}[j%3]
				r.sweep(sweepTiming(trcd, physics.TRPNominalNS), bank, row, fill)
			}
			r.disturbAndRead(bank, row)
		}

		// Retention between a write and its read: weak cells (B6 at VPPmin
		// fails at the 64 ms window) or bulk cells at the retention
		// temperature, on the first rows past 1000 with and without weak
		// cells.
		rows := [2]int{-1, -1}
		for phys := 1000; rows[0] < 0 || rows[1] < 0; phys++ {
			if weak := min(m.Model().GroundTruthWeakCells(bank, phys), 1); rows[weak] < 0 {
				rows[weak] = m.Scheme().PhysicalToLogical(phys)
			}
		}
		r.each("temperature", func(m *Module) error { m.SetTemperature(physics.RetentionTestTempC); return nil })
		for _, row := range rows {
			for _, gapMS := range []float64{100, 400, 2000} {
				r.sweep(sweepTiming(30, gapMS*1e6), bank, row, 0xFF)
				r.disturbAndRead(bank, row)
			}
		}

		// Commands that fail: a row out of range, and an open bank.
		r.sweep(sweepTiming(13.5, physics.TRPNominalNS), bank, geom.RowsPerBank, 0xAA)
		r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, 7) })
		r.sweep(sweepTiming(13.5, physics.TRPNominalNS), bank, 7, 0xAA)
		for k, n := range r.seen {
			seen[k] += n
		}
	}
	for _, k := range []string{"clean", "column 0", "later column", "clean, per command", "faulty, per command", "error"} {
		if seen[k] == 0 {
			t.Errorf("no sweep ended %s; outcomes %v", k, seen)
		}
	}
	t.Logf("sweeps by outcome: %v", seen)
}

// TestAlg2ColumnStepAllocsFree sweeps a row at 8 KiB rows again and again,
// once at a latency past the row's safe bound and once inside its tRCD
// requirement, and asserts a steady-state sweep allocates nothing.
func TestAlg2ColumnStepAllocsFree(t *testing.T) {
	p, _ := physics.ProfileByName("A0")
	for _, c := range []struct {
		trcd   float64
		faulty bool
	}{{30, false}, {9, true}} {
		m := NewModule(p, physics.FullGeometry(), 2022)
		m.SetVPP(p.VPPMin)
		const bank, row = 0, 1000
		st, at := sweepTiming(c.trcd, physics.TRPNominalNS), PS(0)
		sweep := func() {
			col, next, err := m.ColumnSweep(at, st, bank, row, 0xAA)
			if err != nil || (col >= 0) != c.faulty {
				t.Fatalf("tRCD %v ns: column %d, err %v", c.trcd, col, err)
			}
			at = next
		}
		sweep() // the first sweep creates the row and samples its physics
		if a := testing.AllocsPerRun(100, sweep); a != 0 {
			t.Errorf("tRCD %v ns: ColumnSweep allocates %v times in steady state, want 0", c.trcd, a)
		}
	}
}
