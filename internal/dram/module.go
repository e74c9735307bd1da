// Package dram implements the simulated DDR4 module: the command-level
// device the SoftMC-style controller drives. It is the boundary between the
// characterization algorithms (which may only issue ACT/PRE/RD/WR/REF
// commands and observe returned data, exactly as against real silicon) and
// the ground-truth physics model behind it.
//
// The module tracks, per row, the disturbance exposure accumulated from
// neighbor activations since the last full-row write or refresh, the elapsed
// unrefreshed time, and the activation timing of reads, and materializes bit
// flips through the physics model when data is read. Bit flips therefore
// appear and persist exactly as they would on hardware: they survive until
// the row is rewritten or refreshed, grow monotonically with additional
// hammering, and depend on the wordline voltage at which the module is
// operated.
package dram

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// Command-protocol errors.
var (
	// ErrNoComm indicates the module cannot communicate because VPP is
	// below the module's VPPmin (§7: below VPPmin the access transistors
	// cannot connect cells to bitlines and the module stops responding).
	ErrNoComm = errors.New("dram: module not responding (VPP below VPPmin)")
	// ErrBankOpen is returned by ACT to an already-open bank.
	ErrBankOpen = errors.New("dram: bank already has an open row")
	// ErrBankClosed is returned by RD/WR to a precharged bank.
	ErrBankClosed = errors.New("dram: bank has no open row")
	// ErrBadAddress is returned for out-of-range bank/row/column addresses.
	ErrBadAddress = errors.New("dram: address out of range")
	// ErrTimeRegression is returned when a command is issued at a time
	// before the previous command.
	ErrTimeRegression = errors.New("dram: command time moved backwards")
)

// PS is a point in simulated time, in picoseconds.
type PS int64

// Common time conversions.
const (
	PSPerNS = PS(1_000)
	PSPerMS = PS(1_000_000_000)
)

// NSToPS converts nanoseconds to picoseconds.
func NSToPS(ns float64) PS { return PS(ns * float64(PSPerNS)) }

// MSToPS converts milliseconds to picoseconds.
func MSToPS(ms float64) PS { return PS(ms * float64(PSPerMS)) }

// BurstBytes is the number of bytes transferred by one RD/WR burst
// (64 bits x BL8 across the rank).
const BurstBytes = 64

// rowState is the mutable per-row device state.
type rowState struct {
	data       []byte // last written image; nil if never written
	uniform    bool   // data is all data[0]
	writeEpoch int    // counts full-row writes; keys measurement noise
	lastWrite  PS     // time of last full-row write or refresh

	// Disturbance exposure accumulated since lastWrite, split by side so
	// double-sided attacks are distinguished from single-sided ones.
	hammerLo float64 // activations of the physical row below
	hammerHi float64 // activations of the physical row above
	hammerD2 float64 // activations at physical distance two
}

// bankState is the mutable per-bank device state.
type bankState struct {
	openRow   int // physical row address, or -1 when precharged
	openedAt  PS
	rows      physics.RowPages[rowState] // keyed by physical row address
	refCursor int                        // rolling auto-refresh pointer
	read      readCache                  // read physics of the last row read
}

// Module is one simulated DIMM. It is NOT safe for concurrent use; the
// controller serializes commands exactly as a memory channel does.
type Module struct {
	model  *physics.DeviceModel
	scheme mapping.Scheme
	geom   physics.Geometry

	vpp    float64
	vppMin float64 // the profile's VPPmin, read by every command
	tempC  float64
	now    PS

	banks []bankState
	trr   trrDefense
}

// Option configures a Module.
type Option func(*Module)

// WithTRR enables an in-DRAM target-row-refresh engine with the given
// tracker capacity. The paper disables TRR by never issuing refresh
// commands; the engine exists for the defense-interaction ablations.
func WithTRR(trackers int) Option {
	return func(m *Module) { m.trr = newTRREngine(trackers) }
}

// WithSamplingTRR enables a sampling-based target-row-refresh engine (the
// tracker family that many-sided attacks dilute) with the given per-
// activation sampling probability.
func WithSamplingTRR(prob float64, seed uint64) Option {
	return func(m *Module) { m.trr = newSamplingTRR(prob, seed) }
}

// WithScheme overrides the manufacturer-default internal address mapping.
func WithScheme(s mapping.Scheme) Option {
	return func(m *Module) { m.scheme = s }
}

// NewModule builds a simulated module for the given profile. The seed
// selects the device instance (two modules with the same profile and seed
// are indistinguishable).
func NewModule(prof physics.ModuleProfile, geom physics.Geometry, seed uint64, opts ...Option) *Module {
	m := &Module{
		model:  physics.NewDeviceModel(prof, geom, seed),
		scheme: mapping.DefaultFor(prof.Mfr),
		geom:   geom,
		vpp:    physics.VPPNominal,
		vppMin: prof.VPPMin,
		tempC:  physics.RowHammerTestTempC,
	}
	m.banks = make([]bankState, geom.Banks)
	for i := range m.banks {
		m.banks[i] = bankState{openRow: -1, rows: physics.NewRowPages[rowState](geom.RowsPerBank)}
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Profile returns the module's identity and published characteristics.
func (m *Module) Profile() physics.ModuleProfile { return m.model.Profile() }

// Geometry returns the array organization.
func (m *Module) Geometry() physics.Geometry { return m.geom }

// Scheme returns the internal address mapping in use.
func (m *Module) Scheme() mapping.Scheme { return m.scheme }

// Model exposes the ground-truth physics model for validation tooling and
// tests. Characterization code must not use it.
func (m *Module) Model() *physics.DeviceModel { return m.model }

// Now returns the module's notion of current time.
func (m *Module) Now() PS { return m.now }

// SetVPP drives the external wordline-voltage rail. The setpoint is
// quantized to the supply's 1 mV resolution.
func (m *Module) SetVPP(v float64) {
	m.vpp = float64(int(v*1000+0.5)) / 1000
}

// VPP returns the current wordline voltage.
func (m *Module) VPP() float64 { return m.vpp }

// SetTemperature sets the regulated die temperature in Celsius.
func (m *Module) SetTemperature(c float64) { m.tempC = c }

// Temperature returns the die temperature.
func (m *Module) Temperature() float64 { return m.tempC }

// Responds reports whether the module communicates at the current VPP
// (true iff VPP >= VPPmin).
func (m *Module) Responds() bool {
	return m.vpp >= m.vppMin-1e-9
}

func (m *Module) checkTime(t PS) error {
	if t < m.now {
		return fmt.Errorf("%w: %d < %d", ErrTimeRegression, t, m.now) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	if !m.Responds() {
		return ErrNoComm
	}
	m.now = t
	return nil
}

func (m *Module) bank(b int) (*bankState, error) {
	if b < 0 || b >= len(m.banks) {
		return nil, fmt.Errorf("%w: bank %d", ErrBadAddress, b) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	return &m.banks[b], nil
}

func (m *Module) checkRow(r int) error {
	if r < 0 || r >= m.geom.RowsPerBank {
		return fmt.Errorf("%w: row %d", ErrBadAddress, r) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	return nil
}

// row returns (creating if needed) the state of a physical row.
func (bk *bankState) row(phys int) *rowState {
	slot := bk.rows.Slot(phys)
	if *slot == nil {
		*slot = &rowState{} //detlint:ignore hotalloc one-time lazy row-state creation, amortized over the row's reads
	}
	return *slot
}

// Activate opens a row (logical address) in a bank at time t.
func (m *Module) Activate(t PS, bankIdx, logicalRow int) error {
	return m.activateN(t, bankIdx, logicalRow, 1)
}

// ActivateMany performs count back-to-back activate/precharge cycles of the
// same row, leaving the bank precharged. It is the bulk path the controller
// uses for hammer loops; its observable effect is identical to count
// Activate/Precharge pairs issued at the minimum legal cadence.
func (m *Module) ActivateMany(t PS, bankIdx, logicalRow, count int) error {
	if count <= 0 {
		return nil
	}
	if err := m.activateN(t, bankIdx, logicalRow, count); err != nil {
		return err
	}
	bk := &m.banks[bankIdx]
	bk.openRow = -1
	// Time advances by count activation cycles (tRAS + tRP each).
	m.now = t + PS(count)*NSToPS(physics.TRASNominalNS+physics.TRPNominalNS)
	return nil
}

// activateN opens the row and applies count activations' worth of
// disturbance to its physical neighbors.
func (m *Module) activateN(t PS, bankIdx, logicalRow, count int) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if err := m.checkRow(logicalRow); err != nil {
		return err
	}
	if bk.openRow != -1 {
		return fmt.Errorf("%w: bank %d row %d", ErrBankOpen, bankIdx, bk.openRow) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	phys := m.scheme.LogicalToPhysical(logicalRow)
	bk.openRow = phys
	bk.openedAt = t

	m.disturb(bk, phys, float64(count))
	if m.trr != nil {
		m.trr.observeActivations(phys, count)
	}
	return nil
}

// disturb adds c activations of physical row phys to its neighbors'
// exposure. Distance-one neighbors accumulate full single-side exposure;
// distance-two neighbors a small fraction. Disturbance does not cross
// subarray boundaries (isolation sense amplifiers between subarrays), so a
// neighbor must lie in [first, end): the row's subarray cut at the end of
// the bank.
func (m *Module) disturb(bk *bankState, phys int, c float64) {
	first, end := 0, m.geom.RowsPerBank
	if sub := m.geom.SubarrayRows; sub > 0 {
		first = phys - phys%sub
		end = min(first+sub, end)
	}
	if lo := phys - 1; lo >= first {
		bk.row(lo).hammerHi += c
	}
	if hi := phys + 1; hi < end {
		bk.row(hi).hammerLo += c
	}
	if lo2 := phys - 2; lo2 >= first {
		bk.row(lo2).hammerD2 += c
	}
	if hi2 := phys + 2; hi2 < end {
		bk.row(hi2).hammerD2 += c
	}
}

// Precharge closes the open row of a bank.
func (m *Module) Precharge(t PS, bankIdx int) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	bk.openRow = -1
	return nil
}

// Read performs a RD burst from the open row of a bank: it appends the 64
// bytes at column col to dst and returns the extended slice. The data
// includes every bit flip the physics model holds for the row at this
// moment — RowHammer disturbance, retention loss, and activation-timing
// violations (if the read happens sooner after ACT than the row's tRCD
// requirement at the current VPP). Flips compose by XOR: a bit hit by two
// mechanisms reads back unflipped. Read is ReadRange of one burst.
//
//detlint:hotpath witness=TestModuleReadAllocsFree
func (m *Module) Read(dst []byte, t PS, bankIdx, col int) ([]byte, error) {
	return m.ReadRange(dst, t, 0, bankIdx, col, 1)
}

// ReadRange performs n RD bursts from the open row of a bank, columns col
// to col+n-1, burst k at time t + k·step, and appends their data to dst. It
// returns exactly what n calls of Read at those times would, and leaves the
// module at the last burst's time. While a row is open only a burst's time
// varies, so the row's state is checked and its physics looked up once.
//
//detlint:hotpath witness=TestModuleReadRangeAllocsFree
func (m *Module) ReadRange(dst []byte, t, step PS, bankIdx, col, n int) ([]byte, error) {
	bk, rs, err := m.openRead(t, step, bankIdx, col, n)
	if err != nil {
		return dst, err
	}
	return m.appendRange(dst, t, step, bankIdx, bk, rs, col, n), nil
}

// CountRange returns the number of bits that ReadRange with the same
// arguments would read back different from fill, and has exactly its
// effect on the module and its clock. A whole-row read of a row holding
// only fill, at or past the row's safe activation latency, with one
// retention state over the read, is counted from the flip counts without a
// row image; any other read is assembled into the bank's scratch row and
// popcounted.
//
//detlint:hotpath witness=TestModuleCountRangeAllocsFree
func (m *Module) CountRange(t, step PS, bankIdx, col, n int, fill byte) (int, error) {
	bk, rs, err := m.openRead(t, step, bankIdx, col, n)
	if err != nil {
		return 0, err
	}
	if count, ok := m.countRow(t, step, bk, rs, col, n, fill); ok {
		return count, nil
	}
	rc := &bk.read
	rc.row = m.appendRange(rc.row[:0], t, step, bankIdx, bk, rs, col, n)
	return pattern.Mismatch(rc.row, fill), nil
}

// openRead checks a read of n bursts from col at t + k·step, brings the
// bank's read cache to the open row's state and moves the module to the
// last burst's time.
func (m *Module) openRead(t, step PS, bankIdx, col, n int) (*bankState, *rowState, error) {
	if err := m.checkTime(t); err != nil {
		return nil, nil, err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return nil, nil, err
	}
	if bk.openRow < 0 {
		return nil, nil, ErrBankClosed
	}
	if n < 1 || col < 0 || col+n > m.geom.Columns() {
		return nil, nil, fmt.Errorf("%w: %d columns from %d", ErrBadAddress, n, col) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	if step < 0 && n > 1 {
		return nil, nil, fmt.Errorf("%w: burst step %d", ErrTimeRegression, step) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	rs := bk.row(bk.openRow)
	bk.read.update(m, bankIdx, bk.openRow, rs)
	m.now = t + PS(n-1)*step
	return bk, rs, nil
}

// countRow returns the mismatch count of a read against fill, and true,
// when it follows from the read cache alone: the read covers the whole row,
// the row holds only fill, no burst violates the row's activation latency,
// the bulk retention count is one count over the read and the same weak
// cells have failed at its first and last burst. Then the flipped cells are
// the hammer prefix XOR the failed retention cells, and the count is the
// hammer count when no retention cell has failed, or the retention count
// when no hammer flip has happened. Otherwise it returns false.
func (m *Module) countRow(t, step PS, bk *bankState, rs *rowState, col, n int, fill byte) (int, bool) {
	rc := &bk.read
	if rs.data == nil || !rs.uniform || rs.data[0] != fill || col != 0 || n != m.geom.Columns() ||
		nsSince(bk.openedAt, t) < rc.trcd.SafeNS() {
		return 0, false
	}
	first, last := msSince(rs.lastWrite, t), msSince(rs.lastWrite, t+PS(n-1)*step)
	bulk, uniform := rc.ret.BulkCountRange(first, last)
	if !uniform {
		return 0, false
	}
	// Weak cells only fail over time, so equal counts are equal sets.
	rc.flips = rc.ret.AppendWeakFailures(rc.flips[:0], first)
	weak := len(rc.flips)
	rc.flips = rc.ret.AppendWeakFailures(rc.flips[:0], last)
	switch {
	case len(rc.flips) != weak:
		return 0, false
	case bulk == 0 && weak == 0:
		return rc.hammerN, true
	case rc.hammerN > 0:
		return 0, false
	}
	count := bulk
	if weak > 0 {
		rc.resizeBulk(m, bulk)
		for _, pos := range rc.flips {
			if !rc.retBulk.has(pos) {
				count++
			}
		}
	}
	return count, true
}

// appendRange appends the data of an openRead-checked read to dst.
func (m *Module) appendRange(dst []byte, t, step PS, bankIdx int, bk *bankState, rs *rowState, col, n int) []byte {
	rc := &bk.read
	last := t + PS(n-1)*step
	lo, hi := col*BurstBytes, (col+n)*BurstBytes
	start := len(dst)
	if rs.data != nil {
		dst = append(dst, rs.data[lo:hi]...)
	} else {
		for range n {
			dst = append(dst, zeroBurst[:]...)
		}
	}
	out := dst[start:]

	// RowHammer flips from accumulated neighbor activations.
	if rc.hammerN > 0 {
		rc.resizeHammer(m, bankIdx, bk.openRow)
		subtle.XORBytes(out, out, rc.hammer.bits[lo:hi])
	}

	// Retention flips from unrefreshed time: the failed bulk cells at each
	// burst's time, plus the failed weak cells that are not among them.
	// Elapsed time only grows across the bursts, so a bulk count proven
	// constant over the range and no weak cell failed at the last burst
	// leave one mask for the whole range.
	if rs.data != nil {
		count, uniform := rc.ret.BulkCountRange(msSince(rs.lastWrite, t), msSince(rs.lastWrite, last))
		if uniform {
			rc.resizeBulk(m, count)
			if rc.retBulk.n > 0 {
				subtle.XORBytes(out, out, rc.retBulk.bits[lo:hi])
			}
		}
		rc.flips = rc.ret.AppendWeakFailures(rc.flips[:0], msSince(rs.lastWrite, last))
		if !uniform || len(rc.flips) > 0 {
			for k := range n {
				at := msSince(rs.lastWrite, t+PS(k)*step)
				off, b := lo+k*BurstBytes, out[k*BurstBytes:(k+1)*BurstBytes]
				if !uniform {
					rc.resizeBulk(m, rc.ret.BulkCount(at))
					if rc.retBulk.n > 0 {
						subtle.XORBytes(b, b, rc.retBulk.bits[off:off+BurstBytes])
					}
				}
				rc.flips = rc.ret.AppendWeakFailures(rc.flips[:0], at)
				rc.flipBurst(b, off, true)
			}
		}
	}

	// Activation-timing violations. The time since ACT only grows across
	// the bursts, so a first burst at or past the row's safe latency clears
	// them all.
	if nsSince(bk.openedAt, t) < rc.trcd.SafeNS() {
		for k := range n {
			rc.flips = rc.trcd.AppendFlips(rc.flips[:0], col+k, nsSince(bk.openedAt, t+PS(k)*step), rs.writeEpoch)
			rc.flipBurst(out[k*BurstBytes:(k+1)*BurstBytes], lo+k*BurstBytes, false)
		}
	}
	return dst
}

// msSince and nsSince return the time from from to at in ms and ns.
func msSince(from, at PS) float64 { return float64(at-from) / float64(PSPerMS) }
func nsSince(from, at PS) float64 { return float64(at-from) / float64(PSPerNS) }

// zeroBurst is the content of a burst from a never-written row.
var zeroBurst [BurstBytes]byte

// readKey is everything a row's read physics depends on besides the time
// of the read. While a row is open no ACT can reach its bank, so the key
// changes only through WR (data pattern), WriteRow (write epoch), SetVPP
// and SetTemperature; between activations, neighbor ACTs (exposure) and
// refreshes (write epoch) change it too. The key has two levels: the row's
// retention and tRCD terms depend only on rowKey, and of the state only the
// write epoch reaches them, through the retention noise.
type readKey struct {
	row   rowKey
	state stateKey
}

// rowKey selects a row's retention and tRCD terms.
type rowKey struct {
	phys       int
	vpp, tempC float64
}

// stateKey is the row's written state: it selects the hammer flip count and
// the retention measurement noise.
type stateKey struct {
	epoch   int
	hcEq    float64 // double-sided-equivalent hammer exposure
	pat     patternKind
	hasData bool
}

// readCache holds the row-invariant part of a read for one row state, so a
// full-row readback evaluates the row's physics once instead of once per
// column burst. Its masks and buffers are per bank and reused across rows.
type readCache struct {
	ok      bool
	key     readKey
	hammerN int                  // RowHammer flips at the key's exposure
	hammer  prefixMask           // the first hammerN cells once a read needs them
	ret     physics.RetentionRow // retention terms at the key's VPP, temperature and epoch
	retBulk prefixMask           // failed bulk cells at the last read's time
	trcd    physics.TRCDRow      // activation-latency terms at the key's VPP
	flips   []int32              // scratch for one burst's weak-cell and tRCD flips
	row     []byte               // scratch image of CountRange's assembled reads
}

// update recomputes the cached terms when the open row's state has changed
// since the last read. A rewrite of the same row at the same VPP and
// temperature re-keys only the retention noise and the hammer count.
func (rc *readCache) update(m *Module, bankIdx, phys int, rs *rowState) {
	rc.load(m, bankIdx, phys, stateKey{
		epoch: rs.writeEpoch, hcEq: rs.doubleSidedEquivalent(),
		pat: m.dominantPattern(rs), hasData: rs.data != nil,
	})
}

// load brings the cached terms to physical row phys in state st.
func (rc *readCache) load(m *Module, bankIdx, phys int, st stateKey) {
	key := readKey{row: rowKey{phys: phys, vpp: m.vpp, tempC: m.tempC}, state: st}
	if rc.ok && key == rc.key {
		return
	}
	if !rc.ok || key.row.phys != rc.key.row.phys {
		// The cell orders are per row; a mask of another row's order is void.
		rc.hammer.reset()
		rc.retBulk.reset()
	}
	if !rc.ok || key.row != rc.key.row {
		rc.ret = m.model.RetentionRow(bankIdx, phys, m.vpp, m.tempC, st.epoch) //detlint:ignore hotalloc one-time lazy per-row sampling, amortized over the row's reads
		rc.trcd = m.model.TRCDRow(bankIdx, phys, m.vpp)                        //detlint:ignore hotalloc one-time lazy per-row sampling, amortized over the row's reads
	} else {
		rc.ret.Rekey(st.epoch)
	}
	rc.ok, rc.key = true, key

	rc.hammerN = 0
	if st.hcEq > 0 {
		rc.hammerN = m.model.HammerFlipCount(bankIdx, phys, st.pat, m.vpp, st.hcEq, m.tempC, st.epoch) //detlint:ignore hotalloc one-time lazy per-row sampling, amortized over the row's reads
	}
}

// resizeHammer moves the hammer mask to the first hammerN cells, attaching
// a long enough prefix of the row's hammer order on need, so a row that is
// only counted never samples it.
func (rc *readCache) resizeHammer(m *Module, bankIdx, phys int) {
	if len(rc.hammer.order) < rc.hammerN {
		rc.hammer.setOrder(m.model.HammerOrder(bankIdx, phys, rc.hammerN), m.geom.RowBytes) //detlint:ignore hotalloc lazy per-row sampling, amortized over the row's reads
	}
	rc.hammer.resize(rc.hammerN)
}

// resizeBulk moves the retention mask to the first count bulk cells,
// attaching a long enough prefix of the row's retention order on need.
func (rc *readCache) resizeBulk(m *Module, count int) {
	if len(rc.retBulk.order) < count {
		rc.retBulk.setOrder(rc.ret.BulkOrder(count), m.geom.RowBytes) //detlint:ignore hotalloc lazy per-row sampling, amortized over the row's reads
	}
	rc.retBulk.resize(count)
}

// flipBurst flips in burst b, which starts at byte off of the row, the
// cells of rc.flips that fall inside it; with skipBulk, cells in the
// retention mask are left alone.
func (rc *readCache) flipBurst(b []byte, off int, skipBulk bool) {
	for _, pos := range rc.flips {
		rel := int(pos) - off*8
		if rel < 0 || rel >= BurstBytes*8 || skipBulk && rc.retBulk.has(pos) {
			continue
		}
		b[rel/8] ^= 1 << uint(rel%8)
	}
}

// prefixMask is a row-sized bit mask of the first n cells of a row's
// weakest-first cell order. Resizing toggles only the cells between the old
// and the new prefix, so a count that creeps up from burst to burst costs
// only its growth. The mask holds the prefix of the order the row keeps,
// at least n cells; growing past it attaches a longer one.
type prefixMask struct {
	order []int32
	bits  []byte
	n     int
}

// setOrder attaches a prefix of the row's cell order at least as long as
// the attached one. Its first n cells are the mask's, so the bits stay.
func (pm *prefixMask) setOrder(order []int32, rowBytes int) {
	pm.order = order
	if len(pm.bits) != rowBytes {
		pm.bits = make([]byte, rowBytes) //detlint:ignore hotalloc one per-bank mask, reused by every later row
	}
}

// resize moves the mask to the first n cells of its order.
func (pm *prefixMask) resize(n int) {
	lo, hi := pm.n, n
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, pos := range pm.order[lo:hi] {
		pm.bits[pos/8] ^= 1 << uint(pos%8)
	}
	pm.n = n
}

// has reports whether cell pos is in the mask.
func (pm *prefixMask) has(pos int32) bool {
	return pm.n > 0 && pm.bits[pos/8]&(1<<uint(pos%8)) != 0
}

// reset empties the mask and detaches its order.
func (pm *prefixMask) reset() {
	if pm.n > 0 {
		clear(pm.bits)
	}
	pm.order, pm.n = nil, 0
}

// doubleSidedEquivalent folds the per-side exposure counters into the
// double-sided-equivalent hammer count the physics model is calibrated in:
// balanced two-sided activations count fully, the unbalanced remainder at
// the single-sided weight, and distance-two activations at a small weight.
func (rs *rowState) doubleSidedEquivalent() float64 {
	lo, hi := rs.hammerLo, rs.hammerHi
	minSide := lo
	if hi < lo {
		minSide = hi
	}
	diff := lo + hi - 2*minSide
	return minSide + physics.SingleSidedWeight*diff + physics.DistanceTwoWeight*rs.hammerD2
}

// dominantPattern infers the victim-row data pattern from the stored image
// so the physics model can apply its data-pattern dependence. Rows holding
// non-canonical data use the strongest pattern's behavior.
func (m *Module) dominantPattern(rs *rowState) patternKind {
	if rs.data == nil || len(rs.data) == 0 {
		return defaultPattern
	}
	return patternFromByte(rs.data[0])
}

// Write performs a WR burst into the open row of a bank.
func (m *Module) Write(t PS, bankIdx, col int, data []byte) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if bk.openRow < 0 {
		return ErrBankClosed
	}
	if col < 0 || col >= m.geom.Columns() {
		return fmt.Errorf("%w: column %d", ErrBadAddress, col)
	}
	if len(data) != BurstBytes {
		return fmt.Errorf("%w: burst must be %d bytes, got %d", ErrBadAddress, BurstBytes, len(data))
	}
	rs := bk.row(bk.openRow)
	if rs.data == nil {
		rs.data = make([]byte, m.geom.RowBytes)
	}
	copy(rs.data[col*BurstBytes:], data)
	rs.uniform = false
	return nil
}

// WriteRow fills a full row with one byte in one call and resets the row's
// disturbance and retention state, modeling a complete re-initialization
// (the initialize_row step of the paper's algorithms, which writes one
// data-pattern byte to every cell). The bank must have the row open. A row
// that already holds only fill keeps its image; the rewrite still counts.
//
//detlint:hotpath witness=TestAlg2ColumnStepAllocsFree
func (m *Module) WriteRow(t PS, bankIdx, logicalRow int, fill byte) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if err := m.checkRow(logicalRow); err != nil {
		return err
	}
	phys := m.scheme.LogicalToPhysical(logicalRow)
	if bk.openRow != phys {
		return fmt.Errorf("%w: row %d not open", ErrBankClosed, logicalRow) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	m.rewrite(bk.row(phys), t, fill, 1)
	return nil
}

// rewrite applies n full-row writes of fill to a row, the last at t.
func (m *Module) rewrite(rs *rowState, t PS, fill byte, n int) {
	if rs.data == nil {
		rs.data = make([]byte, m.geom.RowBytes) //detlint:ignore hotalloc one-time lazy row image creation, amortized over the row's rewrites
	}
	if !rs.uniform || rs.data[0] != fill {
		rs.data[0] = fill
		for i := 1; i < len(rs.data); i *= 2 {
			copy(rs.data[i:], rs.data[:i])
		}
		rs.uniform = true
	}
	rs.writeEpoch += n
	rs.lastWrite = t
	rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
}

// rewritten is the read-cache state of a row just rewritten with fill for
// the epoch-th time.
func rewritten(epoch int, fill byte) stateKey {
	return stateKey{epoch: epoch, pat: patternFromByte(fill), hasData: true}
}

// SweepTiming spaces the commands of one ColumnSweep step: each field is
// the time from one command to the next.
type SweepTiming struct {
	// InitRCD, InitRAS and InitRP follow the re-initialization's ACT, its
	// full-row write and its PRE.
	InitRCD, InitRAS, InitRP PS
	// RCD, Rest and RP follow the column read's ACT, its burst and its PRE.
	RCD, Rest, RP PS
}

// ColumnSweep runs the column loop of the paper's Alg. 2 over a row in one
// call. Step col, from column 0, re-initializes the row (ACT, WriteRow with
// fill, PRE), opens it again, reads column col and precharges; the loop
// stops after the first column that reads back anything but fill. It
// returns that column, or -1, and the time the next command is due, and
// leaves the module exactly as those commands issued one at a time from t
// would.
//
// Every read happens one fixed time after its own write, into a row that
// holds only fill and has no disturbance exposure. When no retention flip
// can exist at that elapsed time, a column reads back other than fill
// exactly when its read violates its activation latency, which the row's
// tRCD terms decide without drawing the flipped bits, and the k steps apply
// at once: 2k activations to each neighbor, k write epochs. Otherwise, and
// whenever a command would fail, the steps are replayed command by command.
//
//detlint:hotpath witness=TestAlg2ColumnStepAllocsFree
func (m *Module) ColumnSweep(t PS, st SweepTiming, bankIdx, logicalRow int, fill byte) (int, PS, error) {
	if t < m.now || !m.Responds() || bankIdx < 0 || bankIdx >= len(m.banks) ||
		logicalRow < 0 || logicalRow >= m.geom.RowsPerBank || m.banks[bankIdx].openRow != -1 ||
		min(st.InitRCD, st.InitRAS, st.InitRP, st.RCD, st.Rest, st.RP) < 0 {
		return m.sweepByCommand(t, st, bankIdx, logicalRow, fill)
	}
	bk := &m.banks[bankIdx]
	phys := m.scheme.LogicalToPhysical(logicalRow)
	rs := bk.row(phys)
	rc := &bk.read
	rc.load(m, bankIdx, phys, rewritten(rs.writeEpoch+1, fill))
	// One bulk count over [0, elapsed] holds only below the row's quiet
	// bound, where the count is 0 for every measurement-noise draw and so
	// for every step's write epoch; weak cells fail by elapsed time alone.
	elapsed := msSince(0, st.InitRAS+st.InitRP+st.RCD)
	_, quiet := rc.ret.BulkCountRange(0, elapsed)
	if rc.flips = rc.ret.AppendWeakFailures(rc.flips[:0], elapsed); !quiet || len(rc.flips) > 0 {
		return m.sweepByCommand(t, st, bankIdx, logicalRow, fill)
	}

	// A violation flips at least one bit of the column and nothing else
	// does, so a column is faulty iff its requirement exceeds the latency.
	// No requirement of a column reaches its ColumnSafeNS, so a column whose
	// bound the latency meets is not faulty without drawing its noise.
	cols, faulty := m.geom.Columns(), -1
	if trcdNS := nsSince(0, st.RCD); trcdNS < rc.trcd.SafeNS() {
		for col := range cols {
			if rc.trcd.ColumnSafeNS(col) > trcdNS && rc.trcd.ColumnReqNS(col, rs.writeEpoch+col+1) > trcdNS {
				faulty = col
				break
			}
		}
	}
	k := cols
	if faulty >= 0 {
		k = faulty + 1
	}

	m.disturb(bk, phys, float64(2*k))
	if m.trr != nil {
		for range 2 * k {
			m.trr.observeActivations(phys, 1)
		}
	}
	last := t + PS(k-1)*(st.InitRCD+st.InitRAS+st.InitRP+st.RCD+st.Rest+st.RP) // the last step's ACT
	m.rewrite(rs, last+st.InitRCD, fill, k)
	bk.openedAt = rs.lastWrite + st.InitRAS + st.InitRP
	rc.load(m, bankIdx, phys, rewritten(rs.writeEpoch, fill))
	rc.resizeBulk(m, 0)
	m.now = bk.openedAt + st.RCD + st.Rest
	return faulty, m.now + st.RP, nil
}

// sweepByCommand is ColumnSweep issued one command at a time. On an error
// it returns the time of the failing command.
func (m *Module) sweepByCommand(t PS, st SweepTiming, bankIdx, logicalRow int, fill byte) (int, PS, error) {
	for col := range m.geom.Columns() {
		if err := m.Activate(t, bankIdx, logicalRow); err != nil {
			return -1, t, err
		}
		t += st.InitRCD
		if err := m.WriteRow(t, bankIdx, logicalRow, fill); err != nil {
			return -1, t, err
		}
		t += st.InitRAS
		if err := m.Precharge(t, bankIdx); err != nil {
			return -1, t, err
		}
		t += st.InitRP
		if err := m.Activate(t, bankIdx, logicalRow); err != nil {
			return -1, t, err
		}
		t += st.RCD
		flips, err := m.CountRange(t, 0, bankIdx, col, 1, fill)
		if err != nil {
			return -1, t, err
		}
		t += st.Rest
		if err := m.Precharge(t, bankIdx); err != nil {
			return -1, t, err
		}
		t += st.RP
		if flips > 0 {
			return col, t, nil
		}
	}
	return -1, t, nil
}

// RefreshRow refreshes one row (logical address): the row's current content
// — including any accumulated bit flips — is restored to full charge, and
// disturbance/retention clocks reset. The bank must be precharged.
func (m *Module) RefreshRow(t PS, bankIdx, logicalRow int) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if bk.openRow != -1 {
		return fmt.Errorf("%w: bank %d", ErrBankOpen, bankIdx)
	}
	if err := m.checkRow(logicalRow); err != nil {
		return err
	}
	m.refreshPhys(t, bankIdx, bk, m.scheme.LogicalToPhysical(logicalRow))
	return nil
}

// refreshPhys latches the row's current observable content (flips become
// permanent) and resets its charge state.
func (m *Module) refreshPhys(t PS, bankIdx int, bk *bankState, phys int) {
	rs := bk.rows.Lookup(phys)
	if rs == nil || rs.data == nil {
		// Never-written rows have no defined content to preserve.
		if rs != nil {
			rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
			rs.lastWrite = t
		}
		return
	}
	// Materialize hammer and retention flips into the stored image. A row
	// below its HCfirst flips nothing and never samples its hammer order.
	rs.uniform = false
	if hcEq := rs.doubleSidedEquivalent(); hcEq > 0 {
		pat := m.dominantPattern(rs)
		if n := m.model.HammerFlipCount(bankIdx, phys, pat, m.vpp, hcEq, m.tempC, rs.writeEpoch); n > 0 {
			for _, pos := range m.model.HammerFlipPositions(bankIdx, phys, n) {
				rs.data[pos/8] ^= 1 << uint(pos%8)
			}
		}
	}
	elapsedMS := float64(t-rs.lastWrite) / float64(PSPerMS)
	for _, pos := range m.model.RetentionFlipPositions(bankIdx, phys, m.vpp, elapsedMS, m.tempC, rs.writeEpoch) {
		rs.data[pos/8] ^= 1 << uint(pos%8)
	}
	rs.writeEpoch++
	rs.lastWrite = t
	rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
}

// Refresh issues one REF command: a slice of rows in every bank is
// refreshed (rolling pointer), and — if the module has a TRR engine — the
// engine may additionally refresh the neighbors of rows it suspects of
// being RowHammer aggressors. All banks must be precharged.
func (m *Module) Refresh(t PS) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	for b := range m.banks {
		if m.banks[b].openRow != -1 {
			return fmt.Errorf("%w: bank %d", ErrBankOpen, b)
		}
	}
	// JESD79-4: the full array is covered by 8192 REF commands per tREFW.
	slice := m.geom.RowsPerBank / 8192
	if slice < 1 {
		slice = 1
	}
	for b := range m.banks {
		bk := &m.banks[b]
		for i := 0; i < slice; i++ {
			m.refreshPhys(t, b, bk, bk.refCursor)
			bk.refCursor = (bk.refCursor + 1) % m.geom.RowsPerBank
		}
		if m.trr != nil {
			for _, victim := range m.trr.victimsToRefresh(m.geom.RowsPerBank) {
				m.refreshPhys(t, b, bk, victim)
			}
		}
	}
	return nil
}

// Wait advances device time without issuing a command (retention testing).
func (m *Module) Wait(t PS) error {
	return m.checkTime(t)
}
