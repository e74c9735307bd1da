package physics

import (
	"math"
	"slices"
	"sync"

	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/rng"
)

// Geometry describes the simulated module's array organization at rank level
// (all chips operate in lock-step, so a "row" here is the rank-wide row the
// memory controller sees).
type Geometry struct {
	// Banks is the number of banks per rank.
	Banks int
	// RowsPerBank is the number of rows in each bank.
	RowsPerBank int
	// RowBytes is the rank-level row size in bytes. Real DDR4 modules have
	// 8 KiB rows; smaller values trade BER resolution (the floor is one bit
	// in RowBytes*8) for simulation speed.
	RowBytes int
	// SubarrayRows is the number of rows per subarray; rows at subarray
	// boundaries have only one physically adjacent neighbor.
	SubarrayRows int
}

// DefaultGeometry returns the geometry used by the experiment drivers: a
// deliberately reduced array (the paper tests 4K rows out of each bank) with
// 2 KiB rows for tractable simulation time.
func DefaultGeometry() Geometry {
	return Geometry{Banks: 4, RowsPerBank: 32768, RowBytes: 2048, SubarrayRows: 512}
}

// FullGeometry returns the realistic rank-level geometry of an 8-chip x8
// DDR4 module (8 KiB rows), used when BER resolution matters more than
// runtime.
func FullGeometry() Geometry {
	return Geometry{Banks: 16, RowsPerBank: 32768, RowBytes: 8192, SubarrayRows: 512}
}

// RowBits returns the number of bits in one row.
func (g Geometry) RowBits() int { return g.RowBytes * 8 }

// Columns returns the number of 64-byte column bursts per row.
func (g Geometry) Columns() int {
	c := g.RowBytes / 64
	if c < 1 {
		c = 1
	}
	return c
}

// Valid reports whether the geometry is usable.
func (g Geometry) Valid() bool {
	return g.Banks > 0 && g.RowsPerBank > 0 && g.RowBytes >= 64 && g.SubarrayRows > 1
}

// Model behavior constants. These encode the physical mechanisms of §2.3,
// §2.4 and §6.2 of the paper; per-module coefficients are calibrated from
// Table 3 on top of them.
const (
	// VTCutRestore is the effective access-transistor cutoff: a cell's
	// restored voltage saturates at Vsat = min(VDD, VPP - VTCutRestore).
	// Fit from Obsv. 10 (saturation of 1.151/1.068/0.983 V at VPP of
	// 1.9/1.8/1.7 V).
	VTCutRestore = 0.735
	// VSenseMin is the minimum cell voltage distinguishable by the sense
	// amplifier; the charge margin entering the retention model is
	// Vsat - VSenseMin.
	VSenseMin = 0.4
	// SingleSidedWeight is the effectiveness of unbalanced (single-sided)
	// hammering relative to balanced double-sided hammering; double-sided
	// attacks are the most effective (§4.2), with single-sided needing
	// roughly 1/SingleSidedWeight times more activations per flip.
	SingleSidedWeight = 0.35
	// DistanceTwoWeight is the disturbance weight of aggressor rows at
	// physical distance two (the "blast radius" beyond immediate
	// neighbors).
	DistanceTwoWeight = 0.08
	// measurementNoiseSigma is the log-domain sigma of per-iteration
	// measurement noise, tuned to land the paper's CV percentiles
	// (0.08/0.13/0.24 at P90/P95/P99, §4.6): near-threshold rows amplify
	// effective-exposure noise through the steep flip-count slope.
	measurementNoiseSigma = 0.025
)

// SaturationVoltage returns the voltage at which a cell's charge restoration
// saturates for the given VPP (Obsv. 10).
func SaturationVoltage(vpp float64) float64 {
	return math.Min(VDDNominal, vpp-VTCutRestore)
}

// RestoreMargin returns the sense margin (volts) available to a fully
// restored cell at the given VPP.
func RestoreMargin(vpp float64) float64 {
	m := SaturationVoltage(vpp) - VSenseMin
	if m < 0 {
		return 0
	}
	return m
}

// mfrSpread holds the per-manufacturer spread parameters of per-row
// normalized HCfirst and BER at VPPmin (calibrated to the ranges of
// Obsvs. 3 and 6).
type mfrSpread struct {
	hcUp, hcDown   float64
	berUp, berDown float64
}

func spreadFor(m Manufacturer) mfrSpread {
	switch m {
	case MfrA:
		return mfrSpread{hcUp: 0.130, hcDown: 0.035, berUp: 0.010, berDown: 0.270}
	case MfrB:
		return mfrSpread{hcUp: 0.170, hcDown: 0.060, berUp: 0.040, berDown: 0.090}
	default: // MfrC
		return mfrSpread{hcUp: 0.080, hcDown: 0.040, berUp: 0.020, berDown: 0.020}
	}
}

// DeviceModel is the ground-truth behavioral model of one DIMM. Like the
// dram.Module that owns it, it is NOT safe for concurrent use: it samples
// and memoizes per-row state on first need. The characterization code never
// touches it directly: it lives behind the dram.Module command interface,
// exactly as real silicon lives behind the DDR4 bus.
type DeviceModel struct {
	prof ModuleProfile
	geom Geometry
	root *rng.Stream

	// Module-level calibrated coefficients (computed once).
	sigmaU    float64 // half-normal sigma of per-row HCfirst multipliers
	fLow      float64 // fraction of rows flipping well below the reference HC
	ratioHC   float64 // module-level normalized HCfirst at VPPmin
	ratioBER  float64 // module-level normalized BER at VPPmin
	kHCMod    float64 // module-level log-slope of the HCfirst response
	kBERMod   float64 // module-level log-slope of the BER response
	bumpHC    float64 // mid-sweep hump amplitude of the HCfirst response
	bumpBER   float64 // mid-sweep hump amplitude of the BER response
	vPeak     float64 // voltage at which the hump peaks
	trcd      trcdModel
	retention retentionModel

	rows RowTable[rowParams] // per-row ground truth, sampled on first need
}

// rowParams holds the per-row sampled ground truth.
type rowParams struct {
	u         float64 // HCfirst multiplier over the module minimum
	hcNom     float64 // HCfirst at nominal VPP with the row's WCDP
	berNom    float64 // BER anchor at the reference hammer count, nominal VPP
	kHC       float64 // per-row log-slope of normalized HCfirst
	kBER      float64 // per-row log-slope of normalized BER
	bumpHC    float64 // per-row hump amplitude (HCfirst)
	bumpBER   float64 // per-row hump amplitude (BER)
	flipFrac  float64 // deterministic sub-bit rounding offset in [0,1)
	patWorst  int     // index into pattern.All() of the worst-case pattern
	patDelta  [6]float64
	patVShift [6]float64
	tempCoeff float64 // relative disturbance change per 50C above the 50C reference
	trcdBase  float64 // worst-column tRCD at nominal VPP (ns)
	trcdScale float64 // per-row multiplier on the module tRCD response
	trcdWorst int     // the column whose requirement is the row's worst case
	retLambda float64 // per-row retention-time multiplier
	weak      []weakCell

	hnoise rng.Prefix // "hnoise" over (bank, row): hammer noise per iteration
	rnoise rng.Prefix // "rnoise" over (bank, row): retention noise per iteration

	// Sampled or evaluated on first need. The cell orders are kept only to
	// the prefix reads have used (cellOrder).
	perm    []int32     // weakest-first cell ordering for hammer flips
	retPerm []int32     // weakest-first cell ordering for retention flips
	trcdJit []float64   // per-column tRCD jitter below the worst column
	curve   hammerCurve // hammer flip curve at curve.vpp
}

// hammerCurve is a row's flip-count curve at one VPP: the HCfirst threshold
// and the log-normal the flip count follows above it.
type hammerCurve struct {
	ok     bool
	vpp    float64
	hcf    float64
	mu, sg float64
}

// NewDeviceModel builds the behavioral model for one module profile. The
// seed determines every sampled quantity; models built with equal
// (profile, geometry, seed) behave identically.
func NewDeviceModel(prof ModuleProfile, geom Geometry, seed uint64) *DeviceModel {
	if !geom.Valid() {
		geom = DefaultGeometry()
	}
	m := &DeviceModel{
		prof: prof,
		geom: geom,
		root: rng.New(seed).Derive("module", prof.Name),
		rows: NewRowTable[rowParams](geom.Banks, geom.RowsPerBank),
	}
	m.calibrate()
	return m
}

// Profile returns the module profile this model was built from.
func (m *DeviceModel) Profile() ModuleProfile { return m.prof }

// Geometry returns the array geometry.
func (m *DeviceModel) Geometry() Geometry { return m.geom }

// sOf is the disturbance-reduction coordinate: ln(VPPnominal / v), zero at
// nominal and growing as VPP is reduced.
func sOf(v float64) float64 { return math.Log(VPPNominal / v) }

// calibrate computes the module-level coefficients from the Table 3 anchors.
func (m *DeviceModel) calibrate() {
	p := m.prof
	n := float64(m.geom.RowBits())
	refHC := float64(ReferenceHammerCount)

	// Spread of per-row HCfirst multipliers: wide enough that the fraction
	// of rows flipping at the reference hammer count is consistent with the
	// module's published BER (tiny-BER modules like A5 have mostly
	// unflippable rows).
	pFlip := clamp(p.Nominal.BER*n/2.5, 0.05, 0.95)
	x := math.Log(0.9 * refHC / p.Nominal.HCFirst)
	if x < 0.05 {
		x = 0.05
	}
	m.sigmaU = x / PhiInv((1+pFlip)/2)
	m.fLow = clamp(2*Phi(math.Log(0.6*refHC/p.Nominal.HCFirst)/m.sigmaU)-1, 0.02, 1)

	m.ratioHC = p.AtVPPMin.HCFirst / p.Nominal.HCFirst
	m.ratioBER = clamp(p.AtVPPMin.BER/p.Nominal.BER, 0.05, 3)

	sMin := sOf(p.VPPMin)
	m.kHCMod = math.Log(m.ratioHC) / sMin
	m.kBERMod = math.Log(m.ratioBER) / sMin

	// Mid-sweep hump: calibrated from the recommended operating point when
	// it is interior to the sweep (argmax-HCfirst modules like A2, B4, B5).
	m.vPeak = (VPPNominal + p.VPPMin) / 2
	m.bumpHC, m.bumpBER = 0.015, 0.010
	interior := p.VPPRec < VPPNominal-1e-9 && p.VPPRec > p.VPPMin+1e-9
	if interior {
		m.vPeak = p.VPPRec
		sRec := sOf(p.VPPRec)
		if hcRec := p.AtVPPRec.HCFirst / p.Nominal.HCFirst; hcRec > 0 {
			m.bumpHC = math.Max(0, hcRec-math.Exp(m.kHCMod*sRec))
		}
		if berRec := p.AtVPPRec.BER / p.Nominal.BER; berRec > 0 {
			m.bumpBER = math.Max(0, berRec-math.Exp(m.kBERMod*sRec))
		}
	}

	m.trcd = calibrateTRCD(p, m.root.Derive("trcd"))
	m.retention = calibrateRetention(p, m.root.Derive("retention"))
}

// hump evaluates the mid-sweep hump shape: zero at both sweep endpoints,
// one at the peak voltage.
func (m *DeviceModel) hump(v float64) float64 {
	lo, hi, pk := m.prof.VPPMin, VPPNominal, m.vPeak
	if v <= lo || v >= hi {
		return 0
	}
	if v >= pk {
		d := (v - pk) / (hi - pk)
		return 1 - d*d
	}
	d := (pk - v) / (pk - lo)
	return 1 - d*d
}

// row returns (sampling on first use) the ground-truth parameters of a row.
func (m *DeviceModel) row(bank, rowAddr int) *rowParams {
	slot := m.rows.Slot(bank, rowAddr)
	if *slot == nil {
		*slot = m.sampleRow(bank, rowAddr)
	}
	return *slot
}

func (m *DeviceModel) sampleRow(bank, rowAddr int) *rowParams {
	s := m.root.DeriveInts("row", bank, rowAddr)
	sp := spreadFor(m.prof.Mfr)
	n := float64(m.geom.RowBits())
	sMin := sOf(m.prof.VPPMin)

	rp := &rowParams{}
	rp.u = math.Exp(m.sigmaU * math.Abs(s.NormFloat64()))
	rp.hcNom = m.prof.Nominal.HCFirst * rp.u
	rp.flipFrac = s.Float64()

	// Per-row normalized-HCfirst target at VPPmin. The coupling weight
	// keeps the weakest rows (those that set the module-level minimum) on
	// the module's published ratio so the emergent module measurement
	// matches Table 3, while stronger rows spread per the Fig. 6 ranges.
	w := math.Min(1, math.Log(rp.u)/0.25)
	zHC := clamp(s.NormFloat64(), -2.2, 2.2)
	sigHC := sp.hcDown
	if zHC > 0 {
		sigHC = sp.hcUp
	}
	tHC := m.ratioHC * math.Exp(sigHC*zHC*w)
	rp.kHC = math.Log(tHC) / sMin

	// BER target, anti-correlated with the HCfirst deviation (rows whose
	// HCfirst rises more see their BER fall more).
	zBER := clamp(-0.75*zHC+0.66*s.NormFloat64(), -2.2, 2.2)
	sigBER := sp.berDown
	if zBER > 0 {
		sigBER = sp.berUp
	}
	tBER := m.ratioBER * math.Exp(sigBER*zBER*w)
	rp.kBER = math.Log(tBER) / sMin

	rp.bumpHC = m.bumpHC * math.Exp(0.35*s.NormFloat64()-0.06)
	rp.bumpBER = m.bumpBER * math.Exp(0.35*s.NormFloat64()-0.06)

	// BER anchor at the reference hammer count, scaled so the module-level
	// mean across rows (including never-flipping rows) lands on Table 3.
	rp.berNom = clamp(m.prof.Nominal.BER/m.fLow*math.Exp(0.6*s.NormFloat64()-0.18), 1.3/n, 0.45)

	// Worst-case data pattern: one of the six patterns dominates each row;
	// the others need patDelta more hammers. patVShift adds a small
	// VPP-dependent term that reorders the patterns for a few percent of
	// rows (§4.2 footnote 9: WCDP changes for 2.4% of rows).
	rp.patWorst = s.Intn(6)
	for i := 0; i < 6; i++ {
		if i == rp.patWorst {
			continue
		}
		rp.patDelta[i] = 0.02 + 0.10*s.Float64()
		rp.patVShift[i] = 0.012 * s.NormFloat64()
	}

	rp.trcdBase = m.trcd.rowBaseNS(&s)
	rp.trcdScale = math.Exp(0.10 * s.NormFloat64())
	// The worst column comes from its own stream, so it leaves the row
	// stream's draw order alone.
	ws := m.root.DeriveInts("trcdworst", bank, rowAddr)
	rp.trcdWorst = ws.Intn(m.geom.Columns())
	rp.retLambda = clamp(math.Exp(0.30*s.NormFloat64()), 0.6, 1.8)
	// Per-row temperature sensitivity of the hammer disturbance. Prior
	// characterization (Orosa et al., MICRO'21) finds temperature affects
	// RowHammer non-uniformly across cells: most rows get somewhat more
	// vulnerable as the die heats, a minority less. The paper leaves the
	// three-way VPP/temperature/RowHammer interaction to future work (§7);
	// this coefficient powers the ext-temp extension experiment.
	rp.tempCoeff = s.Normal(0.10, 0.12)
	rp.weak = m.retention.sampleWeakCells(&s, m.geom, m.prof)
	rp.hnoise = m.root.Prefix("hnoise", bank, rowAddr)
	rp.rnoise = m.root.Prefix("rnoise", bank, rowAddr)
	return rp
}

// PatternFactor returns the disturbance-effectiveness multiplier of using
// data pattern k on the given row at voltage vpp. The worst-case pattern has
// factor 1; weaker patterns have smaller factors (more hammers needed).
func (m *DeviceModel) PatternFactor(bank, rowAddr int, k pattern.Kind, vpp float64) float64 {
	return patternFactor(m.row(bank, rowAddr), k, vpp)
}

func patternFactor(rp *rowParams, k pattern.Kind, vpp float64) float64 {
	idx := patternIndex(k)
	if idx < 0 {
		return 0.5
	}
	if idx == rp.patWorst {
		return 1
	}
	f := 1/(1+rp.patDelta[idx]) + rp.patVShift[idx]*(VPPNominal-vpp)
	return clamp(f, 0.5, 1.1)
}

func patternIndex(k pattern.Kind) int {
	for i, p := range pattern.All() {
		if p == k {
			return i
		}
	}
	return -1
}

// normHC evaluates the row's normalized HCfirst response at voltage v.
func (m *DeviceModel) normHC(rp *rowParams, v float64) float64 {
	return math.Exp(rp.kHC*sOf(v)) * (1 + rp.bumpHC*m.hump(v))
}

// normBER evaluates the row's normalized BER response at voltage v.
func (m *DeviceModel) normBER(rp *rowParams, v float64) float64 {
	return math.Exp(rp.kBER*sOf(v)) * (1 + rp.bumpBER*m.hump(v))
}

// GroundTruthHCFirst returns the row's true minimum double-sided hammer
// count for its worst-case pattern at voltage v. Exposed for experiment
// validation and tests; characterization code must measure instead.
func (m *DeviceModel) GroundTruthHCFirst(bank, rowAddr int, v float64) float64 {
	rp := m.row(bank, rowAddr)
	return rp.hcNom * m.normHC(rp, v)
}

// HammerFlipCount returns the number of bit flips in the victim row after an
// effective double-sided hammer exposure of hcEq activations per aggressor,
// using data pattern pat at voltage vpp and die temperature tempC. iter
// selects the measurement-noise realization (the paper repeats every test
// ten times). The paper characterizes RowHammer at 50 C; at that temperature
// the temperature factor is exactly one, so the Table 3 calibration holds.
func (m *DeviceModel) HammerFlipCount(bank, rowAddr int, pat pattern.Kind, vpp, hcEq, tempC float64, iter int) int {
	if hcEq <= 0 || vpp < m.prof.VPPMin-1e-9 {
		return 0
	}
	rp := m.row(bank, rowAddr)
	eff := hcEq * patternFactor(rp, pat, vpp)
	eff *= clamp(1+rp.tempCoeff*(tempC-RowHammerTestTempC)/50, 0.5, 1.8)
	ns := rp.hnoise.Ints(iter)
	eff *= math.Exp(ns.Normal(0, measurementNoiseSigma))

	c := m.hammerCurve(rp, vpp)
	if eff < c.hcf {
		// The first flip is a sharp threshold: below the row's HCfirst no
		// cell has accumulated enough disturbance to cross its margin.
		return 0
	}
	n := float64(m.geom.RowBits())
	p := LogNormalCDF(eff, c.mu, c.sg)
	count := int(p*n + 0.5)
	if count < 1 {
		count = 1
	}
	if count > m.geom.RowBits() {
		count = m.geom.RowBits()
	}
	return count
}

// hammerCurve returns the row's flip-count curve at vpp, evaluating it only
// when vpp differs from the last call's: it depends on nothing else.
func (m *DeviceModel) hammerCurve(rp *rowParams, vpp float64) hammerCurve {
	if rp.curve.ok && rp.curve.vpp == vpp {
		return rp.curve
	}
	n := float64(m.geom.RowBits())
	hcf := rp.hcNom * m.normHC(rp, vpp)
	// The BER anchor cannot drop below the flip floor implied by the
	// HCfirst anchor itself (a row that flips at hcf has >= 1 flipped bit
	// at the reference count when hcf < refHC).
	ber := clamp(rp.berNom*m.normBER(rp, vpp), 1.5/n, 0.45)
	refHC := float64(ReferenceHammerCount)

	p1 := 1 / n
	sg := 1.0
	if hcf < refHC*0.98 {
		if _, s2, ok := SolveLogNormal(hcf, p1, refHC, ber); ok {
			sg = s2
		}
	}
	// Clamp the slope so near-degenerate anchors (hcf approaching refHC
	// with a floor-level BER) cannot produce an explosive flip curve, and
	// re-anchor at the HCfirst point, which must stay exact.
	sg = clamp(sg, 0.15, 4.0)
	mu := math.Log(hcf) - sg*PhiInv(p1)
	rp.curve = hammerCurve{ok: true, vpp: vpp, hcf: hcf, mu: mu, sg: sg}
	return rp.curve
}

// HammerFlipPositions returns the bit positions (within the row) of the
// first count hammer-induced flips. Flip ordering is stable: a larger
// exposure flips a superset of a smaller exposure's cells.
func (m *DeviceModel) HammerFlipPositions(bank, rowAddr, count int) []int32 {
	count = min(count, m.geom.RowBits())
	return m.HammerOrder(bank, rowAddr, count)[:count]
}

// HammerOrder returns a prefix, at least n cells long (the whole row when n
// exceeds it), of the row's weakest-first hammer flip order.
func (m *DeviceModel) HammerOrder(bank, rowAddr, n int) []int32 {
	rp := m.row(bank, rowAddr)
	return m.cellOrder(&rp.perm, "hammerperm", bank, rowAddr, n)
}

// orderKeepDiv sets the shortest cell-order prefix a row keeps: RowBits /
// orderKeepDiv cells (16 KiB of a paper-geometry row's 256 KiB order).
// Reads rarely pass it: Table 3's BER anchors at the reference hammer
// count are a few percent at most, and only long retention windows fail
// more than 1/16 of a row.
const orderKeepDiv = 16

// cellOrder returns a prefix, at least n cells long (the whole row when n
// exceeds it), of the row's weakest-first cell order under label, keeping
// it in *kept. The order is a Fisher–Yates shuffle of the whole row drawn
// from the row's own derived stream; only its prefix is kept, at least
// RowBits/orderKeepDiv cells. A read past the kept prefix shuffles again:
// the stream is derived from the never-advanced model root, so the second
// shuffle is the first one, and the row keeps the longer prefix (at least
// double the old one, so a count that creeps up re-shuffles rarely).
func (m *DeviceModel) cellOrder(kept *[]int32, label string, bank, rowAddr, n int) []int32 {
	bits := m.geom.RowBits()
	if n = min(n, bits); len(*kept) < n {
		k := min(max(bits/orderKeepDiv, n, 2*len(*kept)), bits)
		*kept = m.cellPrefix(label, bank, rowAddr, k)
	}
	return *kept
}

// permScratch pools the row-sized buffers cell orders are shuffled in, so
// sampling a row's order allocates only the prefix the row keeps.
var permScratch = sync.Pool{New: func() any { return new([]int32) }}

// cellPrefix returns the first k cells of the row's weakest-first cell
// order under label.
func (m *DeviceModel) cellPrefix(label string, bank, rowAddr, k int) []int32 {
	buf := permScratch.Get().(*[]int32)
	defer permScratch.Put(buf)
	bits := m.geom.RowBits()
	if cap(*buf) < bits {
		*buf = make([]int32, bits)
	}
	p := (*buf)[:bits]
	s := m.root.DeriveInts(label, bank, rowAddr)
	s.PermInto(p)
	return slices.Clone(p[:k])
}
