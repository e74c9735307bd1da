package dram

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/dramstudy/rhvpp/internal/physics"
)

// refRead is the per-burst flip assembly that Read replaced, kept as the
// oracle: every mechanism is evaluated from scratch for each 64-byte burst
// and each flip position is scanned against the burst's bit range. It reads
// the module's state without changing it.
func refRead(m *Module, t PS, bankIdx, col int) []byte {
	bk := &m.banks[bankIdx]
	phys := bk.openRow
	rs := bk.row(phys)

	out := make([]byte, BurstBytes)
	if rs.data != nil {
		copy(out, rs.data[col*BurstBytes:(col+1)*BurstBytes])
	}
	base := int32(col * BurstBytes * 8)
	limit := base + int32(BurstBytes*8)
	applyFlips := func(positions []int32) {
		for _, pos := range positions {
			if pos >= base && pos < limit {
				rel := pos - base
				out[rel/8] ^= 1 << uint(rel%8)
			}
		}
	}
	if hcEq := rs.doubleSidedEquivalent(); hcEq > 0 {
		pat := m.dominantPattern(rs)
		n := m.model.HammerFlipCount(bankIdx, phys, pat, m.vpp, hcEq, m.tempC, rs.writeEpoch)
		if n > 0 {
			applyFlips(m.model.HammerFlipPositions(bankIdx, phys, n))
		}
	}
	if rs.data != nil {
		elapsedMS := float64(t-rs.lastWrite) / float64(PSPerMS)
		applyFlips(m.model.RetentionFlipPositions(bankIdx, phys, m.vpp, elapsedMS, m.tempC, rs.writeEpoch))
	}
	trcdNS := float64(t-bk.openedAt) / float64(PSPerNS)
	trcd := m.model.TRCDRow(bankIdx, phys, m.vpp)
	applyFlips(trcd.AppendFlips(nil, col, trcdNS, rs.writeEpoch))
	return out
}

// oracleRun drives one module and checks every burst it reads against
// refRead.
type oracleRun struct {
	t       *testing.T
	m       *Module
	at      PS
	name    string
	bursts  int
	flipped int // bursts that differ from the stored data
	across  int // row calls read across a retention change (readAcross)
}

func (r *oracleRun) step(ns float64) { r.at += NSToPS(ns) }

func (r *oracleRun) must(err error, what string) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("%s: %s: %v", r.name, what, err)
	}
}

func (r *oracleRun) initRow(bank, row int, fill byte) {
	r.t.Helper()
	r.must(r.m.Activate(r.at, bank, row), "activate")
	r.step(physics.TRCDNominalNS)
	r.must(r.m.WriteRow(r.at, bank, row, fill), "write row")
	r.step(physics.TRASNominalNS)
	r.must(r.m.Precharge(r.at, bank), "precharge")
	r.step(physics.TRPNominalNS)
}

// hammer activates the victim's physical neighbors count times each.
func (r *oracleRun) hammer(bank, victim, count int) {
	r.t.Helper()
	phys := r.m.Scheme().LogicalToPhysical(victim)
	for _, p := range []int{phys - 1, phys + 1} {
		r.must(r.m.ActivateMany(r.at, bank, r.m.Scheme().PhysicalToLogical(p), count), "hammer")
		r.at = r.m.Now()
	}
}

// read checks one burst at the current time.
func (r *oracleRun) read(bank, col int) {
	r.t.Helper()
	want := refRead(r.m, r.at, bank, col)
	got, err := r.m.Read(nil, r.at, bank, col)
	r.must(err, "read")
	if !bytes.Equal(got, want) {
		r.t.Fatalf("%s: bank %d col %d at %d ps: burst %x, oracle %x", r.name, bank, col, r.at, got, want)
	}
	rs := r.m.banks[bank].row(r.m.banks[bank].openRow)
	if rs.data != nil && !bytes.Equal(got, rs.data[col*BurstBytes:(col+1)*BurstBytes]) {
		r.flipped++
	}
	r.bursts++
}

// readRow opens a row, reads every burst trcd ns after ACT at tCCD = 5 ns,
// and closes it. With between nil it does this twice: first in one row
// call, then, reopened at the same tRCD, burst by burst through Read, so
// every row state is checked on both paths. Otherwise it reads burst by
// burst once, calling between(col) before each.
func (r *oracleRun) readRow(bank, row int, trcd float64, between func(col int)) {
	r.t.Helper()
	r.must(r.m.Activate(r.at, bank, row), "activate")
	r.step(trcd)
	if between == nil {
		r.readRange(bank, r.m.Geometry().Columns())
		r.must(r.m.Precharge(r.at, bank), "precharge")
		r.step(physics.TRPNominalNS)
		r.readRow(bank, row, trcd, func(int) {})
		return
	}
	for col := 0; col < r.m.Geometry().Columns(); col++ {
		between(col)
		r.read(bank, col)
		r.step(5)
	}
	r.must(r.m.Precharge(r.at, bank), "precharge")
	r.step(physics.TRPNominalNS)
}

// readRange checks a row call over columns 0..n-1, one burst every 5 ns
// from the current time, burst by burst against refRead.
func (r *oracleRun) readRange(bank, n int) {
	r.t.Helper()
	step := NSToPS(5)
	want := make([][]byte, n)
	for col := range want {
		want[col] = refRead(r.m, r.at+PS(col)*step, bank, col)
	}
	got, err := r.m.ReadRange(nil, r.at, step, bank, 0, n)
	r.must(err, "read range")
	if len(got) != n*BurstBytes {
		r.t.Fatalf("%s: row call returned %d bytes, want %d", r.name, len(got), n*BurstBytes)
	}
	rs := r.m.banks[bank].row(r.m.banks[bank].openRow)
	for col, w := range want {
		b := got[col*BurstBytes : (col+1)*BurstBytes]
		if !bytes.Equal(b, w) {
			r.t.Fatalf("%s: row call bank %d col %d at %d ps: burst %x, oracle %x", r.name, bank, col, r.at+PS(col)*step, b, w)
		}
		if rs.data != nil && !bytes.Equal(b, rs.data[col*BurstBytes:(col+1)*BurstBytes]) {
			r.flipped++
		}
		r.bursts++
	}
	if now := r.m.Now(); now != r.at+PS(n-1)*step {
		r.t.Fatalf("%s: row call left the module at %d ps, want the last burst's %d", r.name, now, r.at+PS(n-1)*step)
	}
	r.at += PS(n) * step
}

// straddle returns the elapsed time since the open row's last write, in
// ps, at which the cached read terms change their answer: the bulk count
// (weak false) or the set of failed weak cells (weak true) first differs
// from its value at loPS. It also returns the column to read at that time:
// the column of the newly failed weak cell, or the middle one. It returns
// -1 if nothing changes before hiPS.
func straddle(m *Module, bankIdx int, loPS, hiPS PS, weak bool) (PS, int) {
	rc := &m.banks[bankIdx].read
	failed := func(at PS) []int32 {
		return rc.ret.AppendWeakFailures(nil, float64(at)/float64(PSPerMS))
	}
	state := func(at PS) int {
		if weak {
			return len(failed(at))
		}
		return rc.ret.BulkCount(float64(at) / float64(PSPerMS))
	}
	c0 := state(loPS)
	if state(hiPS) == c0 {
		return -1, 0
	}
	for hiPS-loPS > 1 {
		mid := loPS + (hiPS-loPS)/2
		if state(mid) == c0 {
			loPS = mid
		} else {
			hiPS = mid
		}
	}
	if !weak {
		return hiPS, m.geom.Columns() / 2
	}
	before := failed(loPS)
	for _, pos := range failed(hiPS) {
		if !slices.Contains(before, pos) {
			return hiPS, int(pos) / (BurstBytes * 8)
		}
	}
	panic("weak failure count grew without a new cell")
}

// readAcross initializes a row and reads it in one row call timed so that
// the straddled burst (see straddle) comes offset after the first change
// of the bulk count (weak false) or of the failed weak cells (weak true)
// past loMS. It reports whether such a change exists before hiMS and
// leaves a straddled burst after the first and before the last.
func (r *oracleRun) readAcross(bank, row int, fill byte, loMS, hiMS float64, weak bool, offset PS) bool {
	r.t.Helper()
	r.initRow(bank, row, fill)
	// Sample the row's cached terms at its new state without reading.
	r.must(r.m.Activate(r.at, bank, row), "activate")
	bk := &r.m.banks[bank]
	rs := bk.row(bk.openRow)
	bk.read.update(r.m, bank, bk.openRow, rs)
	r.must(r.m.Precharge(r.at, bank), "precharge")
	r.step(physics.TRPNominalNS)
	at, col := straddle(r.m, bank, MSToPS(loMS), MSToPS(hiMS), weak)
	if at < 0 || col == 0 || col == r.m.geom.Columns()-1 {
		return false
	}
	const trcd = 30
	r.at = rs.lastWrite + at + offset - NSToPS(trcd+float64(col)*5)
	r.readRow(bank, row, trcd, nil)
	r.across++
	return true
}

func TestReadMatchesPerBurstOracleAtPaperGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry oracle sweep")
	}
	geom := physics.FullGeometry()
	if geom.RowBytes != 8192 || geom.Columns() != 128 {
		t.Fatalf("paper geometry is %d-byte rows, %d columns", geom.RowBytes, geom.Columns())
	}
	total := oracleRun{}
	for _, name := range []string{"A0", "B2", "B3", "C0"} {
		p, _ := physics.ProfileByName(name)
		for _, vpp := range []float64{physics.VPPNominal, 1.9, p.VPPMin} {
			m := NewModule(p, geom, 2022)
			m.SetVPP(vpp)
			r := &oracleRun{t: t, m: m, name: fmt.Sprintf("%s@%.2fV", name, vpp)}
			const bank, victim = 1, 1000
			hcFirst := int(m.Model().GroundTruthHCFirst(bank, m.Scheme().LogicalToPhysical(victim), vpp))
			reqNS := m.Model().GroundTruthRowTRCDNS(bank, m.Scheme().LogicalToPhysical(victim), vpp)

			// Hammer counts around and far above HCfirst, read safely.
			for i, hc := range []int{0, hcFirst / 2, hcFirst + hcFirst/10, 4 * hcFirst} {
				r.initRow(bank, victim, []byte{0xAA, 0x55, 0xFF, 0x00}[i])
				r.hammer(bank, victim, hc)
				r.readRow(bank, victim, 30, nil)
				// Reopening an unchanged row reads the same physics.
				r.readRow(bank, victim, 30, nil)
			}

			// Retention waits at the retention test temperature, then
			// hammer and retention flips together.
			m.SetTemperature(physics.RetentionTestTempC)
			for _, waitMS := range []float64{64, 128, 4000, 16000} {
				r.initRow(bank, victim+2, 0xCC)
				r.hammer(bank, victim+2, 4*hcFirst)
				r.step(waitMS * 1e6)
				r.readRow(bank, victim+2, 30, nil)
			}
			// Rows whose bulk count steps between their first and last
			// burst, which the row call must count burst by burst.
			for _, at := range []float64{1000, 4000, 16000} {
				r.readAcross(bank, victim+4, 0xCC, at, 2*at, false, 0)
			}
			m.SetTemperature(physics.RowHammerTestTempC)

			// tRCD overrides on both sides of the row's requirement and of the
			// draw-skip bound (requirement + MaxAbsNorm·noise ≈ +0.72 ns).
			for _, trcd := range []float64{6, reqNS - 1.5, reqNS - 0.2, reqNS, reqNS + 0.5, reqNS + 0.75, 13.5, 30} {
				r.initRow(bank, victim, 0x33)
				r.readRow(bank, victim, trcd, nil)
			}

			// State changes between the bursts of one open row: WR (data
			// pattern), WriteRow (epoch, exposure, retention clock), SetVPP
			// and SetTemperature must all invalidate the cached terms.
			r.initRow(bank, victim, 0xFF)
			r.hammer(bank, victim, 2*hcFirst)
			r.step(200e6)
			r.readRow(bank, victim, reqNS-0.5, func(col int) {
				switch col {
				case 16:
					r.must(m.Write(r.at, bank, 0, bytes.Repeat([]byte{0x00}, BurstBytes)), "write")
				case 32:
					m.SetTemperature(85)
				case 48:
					m.SetVPP(p.VPPMin + 0.1)
				case 64:
					m.SetVPP(vpp)
					m.SetTemperature(physics.RowHammerTestTempC)
				case 80:
					r.must(m.WriteRow(r.at, bank, victim, 0x55), "write row")
				case 96:
					r.must(m.Write(r.at, bank, 0, bytes.Repeat([]byte{0xCC}, BurstBytes)), "write")
				}
			})

			// A never-written row with hammer exposure, and two rows of two
			// banks read alternately so each bank's cache switches rows.
			r.hammer(bank, 3000, 4*hcFirst)
			r.readRow(bank, 3000, 30, nil)
			r.initRow(0, victim, 0xAA)
			r.hammer(0, victim, 2*hcFirst)
			for i := 0; i < 3; i++ {
				r.readRow(0, victim, 30, nil)
				r.readRow(bank, victim, 30, nil)
				r.readRow(bank, 3000, reqNS-1, nil)
			}
			total.bursts += r.bursts
			total.flipped += r.flipped
			total.across += r.across
		}
	}
	// Weak cells (B6 fails at the 64 ms window) after long waits at VPPmin,
	// where some failed weak cells are also failed bulk cells and must not
	// flip twice.
	p, _ := physics.ProfileByName("B6")
	m := NewModule(p, geom, 7)
	m.SetVPP(p.VPPMin)
	m.SetTemperature(physics.RetentionTestTempC)
	r := &oracleRun{t: t, m: m, name: "B6 weak cells"}
	for row := 0; row < 48; row++ {
		r.initRow(0, row, 0xFF)
	}
	r.step(20000e6)
	for row := 0; row < 48; row++ {
		r.readRow(0, row, 30, nil)
	}
	bulkAcross := total.across
	// Rows read across the failure of a weak cell: its burst comes just
	// before or exactly at the failure, and a later burst of the row past it.
	for row := 48; row < 96; row++ {
		if m.Model().GroundTruthWeakCells(0, m.Scheme().LogicalToPhysical(row)) == 0 {
			continue
		}
		r.readAcross(0, row, 0xFF, 1, 20000, true, -1)
		r.readAcross(0, row, 0xFF, 1, 20000, true, 0)
	}
	total.bursts += r.bursts
	total.flipped += r.flipped
	total.across += r.across
	if bulkAcross == 0 || total.across == bulkAcross {
		t.Fatalf("%d row calls across a bulk count step and %d across a weak-cell failure; want both", bulkAcross, total.across-bulkAcross)
	}

	// The sweep must have exercised flips, not only clean rows.
	if total.flipped < total.bursts/10 {
		t.Fatalf("only %d of %d bursts carried flips", total.flipped, total.bursts)
	}
	t.Logf("%d bursts checked, %d with flips, %d row calls across a retention change", total.bursts, total.flipped, total.across)
}

// TestRewriteThenBurstMatchesOracle drives the Alg. 2 access shape: write
// the row, then open it and read one burst, over and over. Between
// rewrites it varies the fill, the hammer exposure, the retention wait
// (long enough that each write epoch's retention noise shows) and, every
// few rewrites, VPP and temperature. Every burst must equal refRead, which
// pins what a rewrite of the same row keeps and what it re-keys.
func TestRewriteThenBurstMatchesOracle(t *testing.T) {
	geom := physics.FullGeometry()
	total := oracleRun{}
	for _, name := range []string{"A0", "B6", "C0"} {
		p, _ := physics.ProfileByName(name)
		m := NewModule(p, geom, 2022)
		r := &oracleRun{t: t, m: m, name: name + " rewrites"}
		const bank, victim = 1, 500
		phys := m.Scheme().LogicalToPhysical(victim)
		hcFirst := int(m.Model().GroundTruthHCFirst(bank, phys, physics.VPPNominal))
		fills := []byte{0xAA, 0x55, 0xFF, 0x00, 0xCC}
		for i := 0; i < 120; i++ {
			switch i % 24 {
			case 6:
				m.SetVPP(p.VPPMin)
			case 12:
				m.SetTemperature(physics.RetentionTestTempC)
			case 18:
				m.SetVPP(1.9)
			case 23:
				m.SetVPP(physics.VPPNominal)
				m.SetTemperature(physics.RowHammerTestTempC)
			}
			r.initRow(bank, victim, fills[i%len(fills)])
			if i%3 == 1 {
				r.hammer(bank, victim, 2*hcFirst)
			}
			r.step([]float64{0, 16000e6, 4000e6, 300e6}[i%4])
			reqNS := m.Model().GroundTruthRowTRCDNS(bank, phys, m.VPP())
			r.must(m.Activate(r.at, bank, victim), "activate")
			r.step([]float64{reqNS - 0.5, 13.5, 30}[i%3])
			r.read(bank, (i*37)%geom.Columns())
			r.must(m.Precharge(r.at, bank), "precharge")
			r.step(physics.TRPNominalNS)
		}
		total.bursts += r.bursts
		total.flipped += r.flipped
	}
	if total.flipped < total.bursts/4 {
		t.Fatalf("only %d of %d bursts carried flips", total.flipped, total.bursts)
	}
	t.Logf("%d bursts checked, %d with flips", total.bursts, total.flipped)
}

func TestModuleReadAllocsFree(t *testing.T) {
	p, _ := physics.ProfileByName("B3")
	m := NewModule(p, physics.FullGeometry(), 2022)
	m.SetTemperature(physics.RetentionTestTempC)
	r := &oracleRun{t: t, m: m, name: "B3"}
	const bank, victim = 0, 1000
	r.initRow(bank, victim, 0xAA)
	r.hammer(bank, victim, 300_000)
	r.step(4000e6) // retention flips grow from burst to burst
	r.must(m.Activate(r.at, bank, victim), "activate")
	r.step(30)
	buf := make([]byte, 0, BurstBytes)
	col := 0
	read := func() {
		var err error
		buf, err = m.Read(buf[:0], r.at, bank, col)
		r.must(err, "read")
		col = (col + 1) % m.Geometry().Columns()
		r.step(5)
	}
	read() // first burst samples the row and sizes the per-bank masks
	if a := testing.AllocsPerRun(1000, read); a != 0 {
		t.Errorf("Read allocates %v times per burst in steady state, want 0", a)
	}
}

func TestModuleReadRangeAllocsFree(t *testing.T) {
	p, _ := physics.ProfileByName("B3")
	m := NewModule(p, physics.FullGeometry(), 2022)
	m.SetTemperature(physics.RetentionTestTempC)
	r := &oracleRun{t: t, m: m, name: "B3"}
	const bank, victim = 0, 1000
	r.initRow(bank, victim, 0xAA)
	r.hammer(bank, victim, 300_000)
	r.step(4000e6) // retention flips grow from row to row
	cols := m.Geometry().Columns()
	buf := make([]byte, 0, m.Geometry().RowBytes)
	read := func() {
		r.must(m.Activate(r.at, bank, victim), "activate")
		r.step(10) // inside the tRCD requirement: the row's bursts draw
		var err error
		buf, err = m.ReadRange(buf[:0], r.at, NSToPS(5), bank, 0, cols)
		r.must(err, "read range")
		r.at = m.Now()
		r.must(m.Precharge(r.at, bank), "precharge")
		r.step(20e6)
	}
	read() // the first row samples the row and sizes the per-bank masks
	if a := testing.AllocsPerRun(200, read); a != 0 {
		t.Errorf("ReadRange allocates %v times per row in steady state, want 0", a)
	}
}

// TestAlg2ColumnStepAllocsFree drives the device commands of one Alg. 2
// column step at 8 KiB rows — ACT, full-row fill, PRE, then ACT, one burst
// inside the row's tRCD requirement, PRE — and asserts a steady-state step
// allocates nothing.
func TestAlg2ColumnStepAllocsFree(t *testing.T) {
	p, _ := physics.ProfileByName("A0")
	m := NewModule(p, physics.FullGeometry(), 2022)
	m.SetVPP(p.VPPMin)
	r := &oracleRun{t: t, m: m, name: "A0"}
	const bank, row = 0, 1000
	buf := make([]byte, 0, BurstBytes)
	col := 0
	step := func() {
		r.initRow(bank, row, 0xAA)
		r.must(m.Activate(r.at, bank, row), "activate")
		r.step(9)
		var err error
		buf, err = m.Read(buf[:0], r.at, bank, col)
		r.must(err, "read")
		r.step(physics.TRASNominalNS - 9)
		r.must(m.Precharge(r.at, bank), "precharge")
		r.step(physics.TRPNominalNS)
		col = (col + 1) % m.Geometry().Columns()
	}
	step() // the first step creates the row and samples its physics
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Errorf("an Alg. 2 column step allocates %v times in steady state, want 0", a)
	}
}
