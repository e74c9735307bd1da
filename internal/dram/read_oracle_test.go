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

// twinRun drives two modules of one device instance with the same command
// stream. At each row call one twin counts with CountRange and the other
// reads with ReadRange, checked burst by burst against refRead; the roles
// alternate, so both twins' read caches see counts and reads. The count
// must equal the read's mismatch popcount against the fill, and the twins
// must leave the call at the same time.
type twinRun struct {
	t       *testing.T
	m       [2]*Module
	at      PS
	name    string
	calls   int
	fast    int // calls counted without a row image
	flipped int // calls whose count is non-zero
}

func newTwinRun(t *testing.T, name string, geom physics.Geometry, seed uint64, vpp, tempC float64) *twinRun {
	p, _ := physics.ProfileByName(name)
	r := &twinRun{t: t, name: fmt.Sprintf("%s@%.2fV", name, vpp)}
	for i := range r.m {
		r.m[i] = NewModule(p, geom, seed)
		r.m[i].SetVPP(vpp)
		r.m[i].SetTemperature(tempC)
	}
	return r
}

func (r *twinRun) step(ns float64) { r.at += NSToPS(ns) }

// each issues one command to both twins.
func (r *twinRun) each(what string, cmd func(m *Module) error) {
	r.t.Helper()
	for _, m := range r.m {
		if err := cmd(m); err != nil {
			r.t.Fatalf("%s: %s: %v", r.name, what, err)
		}
	}
}

func (r *twinRun) setTemperature(c float64) {
	r.each("temperature", func(m *Module) error { m.SetTemperature(c); return nil })
}

func (r *twinRun) initRow(bank, row int, fill byte) {
	r.t.Helper()
	r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, row) })
	r.step(physics.TRCDNominalNS)
	r.each("write row", func(m *Module) error { return m.WriteRow(r.at, bank, row, fill) })
	r.step(physics.TRASNominalNS)
	r.each("precharge", func(m *Module) error { return m.Precharge(r.at, bank) })
	r.step(physics.TRPNominalNS)
}

// hammer activates the victim's physical neighbors count times each.
func (r *twinRun) hammer(bank, victim, count int) {
	r.t.Helper()
	sch := r.m[0].Scheme()
	phys := sch.LogicalToPhysical(victim)
	for _, p := range []int{phys - 1, phys + 1} {
		r.each("hammer", func(m *Module) error { return m.ActivateMany(r.at, bank, sch.PhysicalToLogical(p), count) })
		r.at = r.m[0].Now()
	}
}

// writeBurst writes one burst of b into an initialized row.
func (r *twinRun) writeBurst(bank, row, col int, b byte) {
	r.t.Helper()
	r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, row) })
	r.step(physics.TRCDNominalNS)
	r.each("write", func(m *Module) error { return m.Write(r.at, bank, col, bytes.Repeat([]byte{b}, BurstBytes)) })
	r.step(physics.TRASNominalNS)
	r.each("precharge", func(m *Module) error { return m.Precharge(r.at, bank) })
	r.step(physics.TRPNominalNS)
}

// count opens a row on both twins and, trcd ns after ACT, counts it against
// fill on one and reads it on the other, one burst every 5 ns.
func (r *twinRun) count(bank, row int, trcd float64, fill byte) {
	r.t.Helper()
	r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, row) })
	r.step(trcd)
	counter, reader := r.m[r.calls%2], r.m[1-r.calls%2]
	cols, step := counter.Geometry().Columns(), NSToPS(5)
	want := make([][]byte, cols)
	for col := range want {
		want[col] = refRead(reader, r.at+PS(col)*step, bank, col)
	}
	rc := &counter.banks[bank].read
	rc.row = rc.row[:0]
	got, err := counter.CountRange(r.at, step, bank, 0, cols, fill)
	if err != nil {
		r.t.Fatalf("%s: count range: %v", r.name, err)
	}
	data, err := reader.ReadRange(nil, r.at, step, bank, 0, cols)
	if err != nil {
		r.t.Fatalf("%s: read range: %v", r.name, err)
	}
	if !bytes.Equal(data, bytes.Join(want, nil)) {
		r.t.Fatalf("%s: row call %d of bank %d row %d differs from the per-burst oracle", r.name, r.calls, bank, row)
	}
	if n := countFlips(data, fill); got != n {
		r.t.Fatalf("%s: call %d, bank %d row %d at tRCD %.2f ns against %#x: CountRange %d, ReadRange mismatches %d",
			r.name, r.calls, bank, row, trcd, fill, got, n)
	}
	if counter.Now() != reader.Now() {
		r.t.Fatalf("%s: call %d: CountRange left the module at %d ps, ReadRange at %d", r.name, r.calls, counter.Now(), reader.Now())
	}
	if len(rc.row) == 0 {
		r.fast++
	}
	if got > 0 {
		r.flipped++
	}
	r.calls++
	r.at = counter.Now() + step
	r.each("precharge", func(m *Module) error { return m.Precharge(r.at, bank) })
	r.step(physics.TRPNominalNS)
}

// countAcross initializes a row and counts it with the straddled burst
// (see straddle) offset after the first change of the bulk count (weak
// false) or of the failed weak cells (weak true) past loMS. It reports
// whether such a change exists before hiMS away from the row's ends.
func (r *twinRun) countAcross(bank, row int, fill byte, loMS, hiMS float64, weak bool, offset PS) bool {
	r.t.Helper()
	r.initRow(bank, row, fill)
	// Sample the row's cached terms at its new state without reading.
	m := r.m[0]
	r.each("activate", func(m *Module) error { return m.Activate(r.at, bank, row) })
	bk := &m.banks[bank]
	rs := bk.row(bk.openRow)
	bk.read.update(m, bank, bk.openRow, rs)
	r.each("precharge", func(m *Module) error { return m.Precharge(r.at, bank) })
	r.step(physics.TRPNominalNS)
	at, col := straddle(m, bank, MSToPS(loMS), MSToPS(hiMS), weak)
	if at < 0 || col == 0 || col == m.geom.Columns()-1 {
		return false
	}
	const trcd = 30
	r.at = rs.lastWrite + at + offset - NSToPS(trcd+float64(col)*5)
	r.count(bank, row, trcd, fill)
	return true
}

// TestCountRangeMatchesReadRangeOnTwins drives, at 8 KiB rows, the row
// states TestReadMatchesPerBurstOracleAtPaperGeometry reads — hammer
// counts, retention waits with and without hammering, bulk counts and weak
// cells that change mid-row, tRCD on both sides of the skip bound, rows of
// two banks read alternately — plus a burst-written row, a never-written
// row and fills that do not match, and counts each on one twin while the
// other reads it.
func TestCountRangeMatchesReadRangeOnTwins(t *testing.T) {
	geom := physics.FullGeometry()
	var calls, fast, flipped, across int
	tally := func(r *twinRun) {
		calls += r.calls
		fast += r.fast
		flipped += r.flipped
	}
	for _, name := range []string{"A0", "B2", "B3", "C0"} {
		p, _ := physics.ProfileByName(name)
		for _, vpp := range []float64{physics.VPPNominal, 1.9, p.VPPMin} {
			r := newTwinRun(t, name, geom, 2022, vpp, physics.RowHammerTestTempC)
			m := r.m[0]
			const bank, victim = 1, 1000
			hcFirst := int(m.Model().GroundTruthHCFirst(bank, m.Scheme().LogicalToPhysical(victim), vpp))
			reqNS := m.Model().GroundTruthRowTRCDNS(bank, m.Scheme().LogicalToPhysical(victim), vpp)

			// Hammer counts around and far above HCfirst, counted safely,
			// then once more on the reopened, unchanged row.
			for i, hc := range []int{0, hcFirst / 2, hcFirst + hcFirst/10, 4 * hcFirst} {
				fill := []byte{0xAA, 0x55, 0xFF, 0x00}[i]
				r.initRow(bank, victim, fill)
				r.hammer(bank, victim, hc)
				r.count(bank, victim, 30, fill)
				r.count(bank, victim, 30, fill)
			}

			// Retention waits, with hammer flips and without, then rows
			// whose bulk count steps between their first and last burst.
			r.setTemperature(physics.RetentionTestTempC)
			for _, waitMS := range []float64{64, 128, 4000, 16000} {
				for _, hc := range []int{4 * hcFirst, 0} {
					r.initRow(bank, victim+2, 0xCC)
					r.hammer(bank, victim+2, hc)
					r.step(waitMS * 1e6)
					r.count(bank, victim+2, 30, 0xCC)
				}
			}
			for _, at := range []float64{1000, 4000, 16000} {
				if r.countAcross(bank, victim+4, 0xCC, at, 2*at, false, 0) {
					across++
				}
			}
			r.setTemperature(physics.RowHammerTestTempC)

			// tRCD on both sides of the row's requirement and of the
			// draw-skip bound.
			for _, trcd := range []float64{6, reqNS - 1.5, reqNS - 0.2, reqNS, reqNS + 0.5, reqNS + 0.75, 13.5, 30} {
				r.initRow(bank, victim, 0x33)
				r.hammer(bank, victim, 2*hcFirst)
				r.count(bank, victim, trcd, 0x33)
			}

			// A burst-written row, a hammered row counted against another
			// fill, and a never-written row against zeros and ones.
			r.initRow(bank, victim, 0xFF)
			r.writeBurst(bank, victim, 9, 0xF0)
			r.hammer(bank, victim, 2*hcFirst)
			r.count(bank, victim, 30, 0xFF)
			r.initRow(bank, victim, 0xAA)
			r.hammer(bank, victim, 2*hcFirst)
			r.count(bank, victim, 30, 0x55)
			r.hammer(bank, 3000, 4*hcFirst)
			r.count(bank, 3000, 30, 0x00)
			r.count(bank, 3000, 30, 0xFF)

			// Two rows of two banks counted alternately, so each bank's
			// cache switches rows.
			r.initRow(0, victim, 0xAA)
			r.hammer(0, victim, 2*hcFirst)
			for i := 0; i < 3; i++ {
				r.count(0, victim, 30, 0xAA)
				r.count(bank, victim, 30, 0xAA)
				r.count(bank, 3000, reqNS-1, 0x00)
			}
			tally(r)
		}
	}
	bulkAcross := across

	// Weak cells (B6 fails at the 64 ms window) after a long wait at
	// VPPmin, some of them among the failed bulk cells, then rows counted
	// across the failure of a weak cell.
	p, _ := physics.ProfileByName("B6")
	r := newTwinRun(t, "B6", geom, 7, p.VPPMin, physics.RetentionTestTempC)
	for row := 0; row < 48; row++ {
		r.initRow(0, row, 0xFF)
	}
	r.step(20000e6)
	for row := 0; row < 48; row++ {
		r.count(0, row, 30, 0xFF)
	}
	for row := 48; row < 96; row++ {
		if r.m[0].Model().GroundTruthWeakCells(0, r.m[0].Scheme().LogicalToPhysical(row)) == 0 {
			continue
		}
		for _, offset := range []PS{-1, 0} {
			if r.countAcross(0, row, 0xFF, 1, 20000, true, offset) {
				across++
			}
		}
	}
	tally(r)

	if bulkAcross == 0 || across == bulkAcross {
		t.Fatalf("%d counts across a bulk count step and %d across a weak-cell failure; want both", bulkAcross, across-bulkAcross)
	}
	// Both paths must have run, on flipped rows and on clean ones.
	if fast == 0 || fast == calls || flipped < calls/4 || flipped == calls {
		t.Fatalf("%d of %d counts without a row image, %d with flips", fast, calls, flipped)
	}
	t.Logf("%d counts, %d without a row image, %d with flips, %d across a retention change", calls, fast, flipped, across)
}

// TestCountRangeLeavesHammerOrderUnsampled runs one Alg. 1 measurement at
// 8 KiB rows — victim and aggressors initialized, a double-sided hammer, a
// count at the safe latency — and checks that the count never attached the
// row's hammer permutation. A read of the same state must still match the
// per-burst oracle.
func TestCountRangeLeavesHammerOrderUnsampled(t *testing.T) {
	p, _ := physics.ProfileByName("B3")
	m := NewModule(p, physics.FullGeometry(), 2022)
	r := &oracleRun{t: t, m: m, name: "B3"}
	const bank, victim = 0, 1000
	phys := m.Scheme().LogicalToPhysical(victim)
	r.initRow(bank, victim, 0xAA)
	r.initRow(bank, m.Scheme().PhysicalToLogical(phys-1), 0x55)
	r.initRow(bank, m.Scheme().PhysicalToLogical(phys+1), 0x55)
	r.hammer(bank, victim, 300_000)
	r.must(m.Activate(r.at, bank, victim), "activate")
	r.step(30)
	n, err := m.CountRange(r.at, NSToPS(5), bank, 0, m.Geometry().Columns(), 0xAA)
	r.must(err, "count range")
	rc := &m.banks[bank].read
	if n == 0 || n != rc.hammerN {
		t.Fatalf("count %d, hammer flips %d: want the hammer count, and flips", n, rc.hammerN)
	}
	r.at = m.Now() + NSToPS(5)
	r.must(m.Precharge(r.at, bank), "precharge")
	r.step(physics.TRPNominalNS)
	if rc.hammer.order != nil {
		t.Fatal("counting the row sampled its hammer permutation")
	}
	r.readRow(bank, victim, 30, nil)
	if r.flipped == 0 {
		t.Fatal("the read after the count carried no flips")
	}
}

// TestModuleCountRangeAllocsFree counts a row over and over in steady
// state, once where the count needs no row image and once where it
// assembles the row, and asserts neither allocates.
func TestModuleCountRangeAllocsFree(t *testing.T) {
	for _, c := range []struct {
		name   string
		tempC  float64
		wait   float64 // ns after the hammer, and between counts
		trcd   float64
		noCopy bool
	}{
		{"hammer only", physics.RowHammerTestTempC, 1e3, 30, true},
		{"retention and tRCD flips", physics.RetentionTestTempC, 20e6, 10, false},
	} {
		p, _ := physics.ProfileByName("B3")
		m := NewModule(p, physics.FullGeometry(), 2022)
		m.SetTemperature(c.tempC)
		r := &oracleRun{t: t, m: m, name: "B3 " + c.name}
		const bank, victim = 0, 1000
		r.initRow(bank, victim, 0xAA)
		r.hammer(bank, victim, 300_000)
		r.step(c.wait)
		cols := m.Geometry().Columns()
		rc := &m.banks[bank].read
		count := func() {
			r.must(m.Activate(r.at, bank, victim), "activate")
			r.step(c.trcd)
			rc.row = rc.row[:0]
			n, err := m.CountRange(r.at, NSToPS(5), bank, 0, cols, 0xAA)
			r.must(err, "count range")
			if n == 0 || (len(rc.row) == 0) != c.noCopy {
				t.Fatalf("%s: count %d, row image %d bytes", r.name, n, len(rc.row))
			}
			r.at = m.Now()
			r.must(m.Precharge(r.at, bank), "precharge")
			r.step(c.wait)
		}
		count() // the first count samples the row and sizes the bank's buffers
		if a := testing.AllocsPerRun(200, count); a != 0 {
			t.Errorf("%s: CountRange allocates %v times per row in steady state, want 0", r.name, a)
		}
	}
}
