package physics

import (
	"math"
	"slices"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// Retention-model constants.
const (
	// retentionFloorMS is the effective-time floor of the bulk retention
	// distribution: manufacturers screen and repair cells retaining less
	// than this at worst-case conditions, which is why no bulk flips occur
	// at or below the nominal 64 ms refresh window at any tested VPP (§4.4,
	// the Fig. 10a x-axis starts at 64 ms; the only 64/128 ms failures come
	// from the engineered weak-cell tiers of Fig. 11).
	retentionFloorMS = 350
	// retentionTempRefC is the die temperature the retention calibration
	// anchors are defined at (the paper tests retention at 80 °C).
	retentionTempRefC = 80.0
	// weakTier64MS and weakTier128MS are the failing refresh windows of the
	// engineered weak-cell tiers behind the Fig. 11 analysis.
	weakTier64MS  = 64
	weakTier128MS = 128
)

// retentionAnchor holds per-manufacturer calibration anchors read off
// Fig. 10: average retention BER at tREFW = 4 s and 16 s under nominal VPP,
// and at 4 s under VPP = 1.5 V (all at 80 °C).
type retentionAnchor struct {
	ber4sNom  float64
	ber16sNom float64
	ber4sLow  float64
}

func retentionAnchorFor(m Manufacturer) retentionAnchor {
	switch m {
	case MfrA:
		return retentionAnchor{ber4sNom: 0.003, ber16sNom: 0.050, ber4sLow: 0.008}
	case MfrB:
		return retentionAnchor{ber4sNom: 0.002, ber16sNom: 0.020, ber4sLow: 0.005}
	default: // MfrC
		return retentionAnchor{ber4sNom: 0.014, ber16sNom: 0.080, ber4sLow: 0.025}
	}
}

// retentionModel is the calibrated per-module retention behavior: a
// floor-truncated log-normal distribution of cell retention times whose
// scale shrinks as the restore margin shrinks with VPP.
type retentionModel struct {
	mu     float64 // log-time location of the cell retention distribution (ms)
	sigma  float64 // log-time spread
	kappa  float64 // margin-scaling exponent: tau scales with (margin ratio)^kappa
	floorF float64 // CDF mass below the screening floor (precomputed)
	vppMin float64
}

// weakCell is one engineered marginal cell behind the Fig. 11 word-level
// analysis: it fails at its tier's refresh window when operated at VPPmin
// (and proportionally at other voltages) but never below the preceding
// power-of-two window.
type weakCell struct {
	pos    int32   // bit position within the row
	tierMS float64 // retention time at VPPmin, in (tier/2, tier]
}

// calibrateRetention solves the per-module retention parameters from the
// manufacturer anchors plus a small module-to-module spread.
func calibrateRetention(prof ModuleProfile, s *rng.Stream) retentionModel {
	a := retentionAnchorFor(prof.Mfr)
	mu, sigma, ok := SolveLogNormal(4000, a.ber4sNom, 16000, a.ber16sNom)
	if !ok {
		mu, sigma = 12, 1.5
	}
	// Solve the margin-scaling exponent from the 1.5 V anchor:
	// F(4000 / rho(1.5V)) = ber4sLow.
	z3 := PhiInv(a.ber4sLow)
	lnRho := math.Log(4000) - mu - sigma*z3
	marginRatio := RestoreMargin(1.5) / RestoreMargin(VPPNominal)
	kappa := 0.6
	if marginRatio > 0 && marginRatio < 1 && lnRho < 0 {
		kappa = lnRho / math.Log(marginRatio)
	}
	// Module-to-module spread on the distribution location.
	mu += 0.08 * s.NormFloat64()
	m := retentionModel{mu: mu, sigma: sigma, kappa: kappa, vppMin: prof.VPPMin}
	m.floorF = Phi((math.Log(retentionFloorMS) - mu) / sigma)
	return m
}

// rho returns the retention-time scale factor at voltage v relative to
// nominal VPP (1 at nominal, <1 at reduced VPP as the restore margin
// shrinks). Below the restore cutoff the margin collapses; rho is clamped to
// a small positive value so the CDF stays defined.
func (r retentionModel) rho(v float64) float64 {
	ratio := RestoreMargin(v) / RestoreMargin(VPPNominal)
	if ratio <= 0.01 {
		ratio = 0.01
	}
	if ratio > 1 {
		ratio = 1
	}
	return math.Pow(ratio, r.kappa)
}

// weakCellSpec describes a tier of engineered weak cells for one
// manufacturer: the fraction of rows carrying them and the number of
// distinct 64-bit words affected per such row.
type weakCellSpec struct {
	tierMS   float64
	rowFrac  float64
	words    int
	needFail bool // tier only present in modules flagged RetentionFails64ms
}

// weakSpecsFor returns the Fig. 11 weak-cell population for a manufacturer:
//
//	64 ms tier (only modules failing at the nominal window): Mfr B rows
//	carry four single-flip words in 15.5% of rows plus 116 words in 0.01%;
//	Mfr C rows carry one word in 0.2% of rows.
//	128 ms tier (all modules): 0.1% / 4.7% / 0.2% of rows with 1 / 2 / 1
//	erroneous words for Mfrs A / B / C.
func weakSpecsFor(m Manufacturer) []weakCellSpec {
	switch m {
	case MfrA:
		return []weakCellSpec{
			{tierMS: weakTier128MS, rowFrac: 0.001, words: 1},
		}
	case MfrB:
		return []weakCellSpec{
			{tierMS: weakTier64MS, rowFrac: 0.155, words: 4, needFail: true},
			{tierMS: weakTier64MS, rowFrac: 0.0001, words: 116, needFail: true},
			{tierMS: weakTier128MS, rowFrac: 0.047, words: 2},
		}
	default: // MfrC
		return []weakCellSpec{
			{tierMS: weakTier64MS, rowFrac: 0.002, words: 1, needFail: true},
			{tierMS: weakTier128MS, rowFrac: 0.002, words: 1},
		}
	}
}

// sampleWeakCells draws the weak cells of one row. At most one weak cell is
// placed per 64-bit word, which is what makes all retention errors at the
// smallest failing window SECDED-correctable (Obsv. 14).
func (r retentionModel) sampleWeakCells(s *rng.Stream, geom Geometry, prof ModuleProfile) []weakCell {
	var cells []weakCell
	words := geom.RowBytes / 8
	if words < 1 {
		return nil
	}
	usedWords := map[int]bool{}
	for _, spec := range weakSpecsFor(prof.Mfr) {
		if spec.needFail && !prof.RetentionFails64ms {
			continue
		}
		if !s.Bool(spec.rowFrac) {
			continue
		}
		n := spec.words
		if n > words-len(usedWords) {
			n = words - len(usedWords)
		}
		for i := 0; i < n; i++ {
			w := s.Intn(words)
			for usedWords[w] {
				w = (w + 1) % words
			}
			usedWords[w] = true
			bit := s.Intn(64)
			// Retention time at VPPmin in (tier/2, tier]: fails at the
			// tier's window but not at the preceding power of two.
			tier := spec.tierMS * (0.55 + 0.43*s.Float64())
			cells = append(cells, weakCell{pos: int32(w*64 + bit), tierMS: tier})
		}
	}
	return cells
}

// weakVoltageExponent sharpens the weak cells' voltage response: they are
// marginal precisely because of the restoration mechanism, so their retention
// time collapses much faster than the bulk population as VPP approaches
// VPPmin. This keeps modules clean at the nominal window under nominal VPP
// (Obsv. 13) while producing the Fig. 11 failures at VPPmin.
const weakVoltageExponent = 3

// RetentionRow holds the terms of a row's retention failures that stay
// fixed while the row is open: the leakage acceleration at the die
// temperature, the VPP-dependent retention scales of the bulk and the weak
// cells, and the measurement noise of the write epoch, drawn on first need.
// Only the elapsed time varies per read.
type RetentionRow struct {
	m         *DeviceModel
	rp        *rowParams // nil below VPPmin, where no read happens
	bank, row int
	iter      int     // measurement iteration; keys the noise draw
	noise     float64 // multiplier on the elapsed time (measurement noise); 0 until drawn
	accel     float64 // leakage doubles per 10 °C above the 80 °C reference
	rhoLambda float64 // rho(vpp) times the row's retention multiplier
	weakScale float64 // weak-cell retention at vpp relative to VPPmin
	quietMS   float64 // no noise draw lifts a read before this above the floor
}

// retentionNoiseSigma is the log-space spread of the per-iteration
// retention measurement noise: the elapsed time is scaled by
// exp(retentionNoiseSigma·N) with N standard normal.
const retentionNoiseSigma = 0.05

// quietSlack is the relative margin the quiet bound keeps below the
// screening floor. A read at elapsedMS < quietMS has, in exact arithmetic,
// elapsedMS·noise·accel/rhoLambda < retentionFloorMS·(1−quietSlack) for any
// noise draw, because |N| ≤ rng.MaxAbsNorm bounds the noise by
// exp(retentionNoiseSigma·MaxAbsNorm). The floating-point products and
// quotients behind quietMS and tEff, and math.Exp, add relative errors of a
// few 2⁻⁵³ ≈ 1e-16, so the computed tEff stays below the floor by a
// relative 1e-6. Log then lies at least ~1e-6 below log(retentionFloorMS),
// far beyond its and Erfc's few-ulp errors, so Phi returns f < floorF, p is
// 0 and the count is int(flipFrac) = 0 with flipFrac in [0,1): exactly what
// BulkCount returns without evaluating them.
const quietSlack = 1e-6

// maxRetentionNoise bounds the retention noise multiplier over every draw.
var maxRetentionNoise = math.Exp(retentionNoiseSigma * rng.MaxAbsNorm)

// RetentionRow returns the row-invariant retention terms of a row at
// voltage vpp and die temperature tempC for measurement iteration iter.
func (m *DeviceModel) RetentionRow(bank, rowAddr int, vpp, tempC float64, iter int) RetentionRow {
	if vpp < m.prof.VPPMin-1e-9 {
		return RetentionRow{}
	}
	rp := m.row(bank, rowAddr)
	ret := m.retention
	accel := math.Pow(2, (tempC-retentionTempRefC)/10)
	rhoLambda := ret.rho(vpp) * rp.retLambda
	return RetentionRow{
		m: m, rp: rp, bank: bank, row: rowAddr, iter: iter,
		accel:     accel,
		rhoLambda: rhoLambda,
		// A weak cell's retention time is its tier at VPPmin and recovers
		// steeply at higher voltages.
		weakScale: math.Pow(ret.rho(vpp)/ret.rho(ret.vppMin), weakVoltageExponent),
		quietMS:   retentionFloorMS * (1 - quietSlack) * rhoLambda / (accel * maxRetentionNoise),
	}
}

// Rekey moves the row to measurement iteration iter: a later draw of the
// noise uses iter's stream. No other term depends on the iteration, so the
// result equals RetentionRow at iter.
func (r *RetentionRow) Rekey(iter int) {
	if iter != r.iter {
		r.iter, r.noise = iter, 0
	}
}

// BulkCount returns how many bulk (non-weak) cells have failed after
// elapsedMS of unrefreshed time: the first BulkCount cells of BulkOrder.
// Reads before the quiet bound, which is positive, return 0 without drawing
// the noise; so do reads at non-positive elapsed times.
func (r *RetentionRow) BulkCount(elapsedMS float64) int {
	if r.rp == nil || elapsedMS < r.quietMS {
		return 0
	}
	return r.countAt(r.bulkCDF(elapsedMS))
}

// cdfSlack is the margin BulkCountRange keeps around the bulk CDF. The
// computed CDF at an elapsed time differs from the exact Phi(z) of that time
// by less than 1e-13: the products and quotient behind tEff round three
// times (< 4e-16 relative), Log adds less than one ulp of |ln tEff| < 64,
// the shift and division by sigma (≥ 1.2 for every manufacturer's anchors,
// 1.5 for the fallback) add a few ulps of z, Phi' ≤ 1/√(2π) carries all of
// it to the CDF, and Erfc adds a few ulps of a value below 2. The rounding
// of the range bound itself is a few ulps of a value below 1. A slack of
// 1e-9 therefore covers twice the CDF error (once at the range's start, once
// at the read) with four orders of magnitude to spare.
const cdfSlack = 1e-9

// invSqrt2Pi is 1/√(2π), the largest slope of Phi.
const invSqrt2Pi = 0.3989422804014327

// BulkCountRange reports the bulk count of every read at an elapsed time in
// [fromMS, toMS], and true, when one count provably holds over the whole
// range; otherwise it returns false and the caller counts read by read.
// Reads past the quiet bound count countAt(Phi(z)) with z linear in
// ln(elapsed), so over the range the exact CDF grows by at most
// Phi'·Δz ≤ (toMS−fromMS)/fromMS/(sigma·√(2π)); widened by cdfSlack on each
// side for rounding, the interval around the CDF at fromMS holds every
// read's computed CDF. countAt is monotone in its argument, so equal counts
// at the two ends pin every read's count.
func (r *RetentionRow) BulkCountRange(fromMS, toMS float64) (int, bool) {
	if r.rp == nil || toMS < r.quietMS {
		return 0, true
	}
	if fromMS < r.quietMS {
		return 0, false
	}
	f := r.bulkCDF(fromMS)
	df := (toMS - fromMS) / fromMS * invSqrt2Pi / r.m.retention.sigma
	n := r.countAt(f - cdfSlack)
	if n != r.countAt(f+df+cdfSlack) {
		return 0, false
	}
	return n, true
}

// bulkCDF is the bulk retention-time CDF at elapsedMS of unrefreshed time,
// with the row's noise, which it draws on first need.
func (r *RetentionRow) bulkCDF(elapsedMS float64) float64 {
	if r.noise == 0 {
		// The stream is derived from the never-advanced model root, so a
		// late draw equals an eager one.
		ns := r.rp.rnoise.Ints(r.iter)
		r.noise = math.Exp(ns.Normal(0, retentionNoiseSigma))
	}
	ret := r.m.retention
	tEff := elapsedMS * r.noise * r.accel / r.rhoLambda
	return Phi((math.Log(tEff) - ret.mu) / ret.sigma)
}

// countAt converts a bulk CDF value into the failed-cell count. Every step
// is monotone in f, so the count is too.
func (r *RetentionRow) countAt(f float64) int {
	ret := r.m.retention
	p := 0.0
	if f > ret.floorF {
		p = (f - ret.floorF) / (1 - ret.floorF)
	}
	n := r.m.geom.RowBits()
	count := int(p*float64(n) + r.rp.flipFrac)
	if count > n {
		count = n
	}
	return count
}

// BulkOrder returns a prefix, at least n cells long (the whole row when n
// exceeds it), of the row's weakest-first bulk cell ordering: the first
// BulkCount cells of it are the failed bulk cells.
func (r *RetentionRow) BulkOrder(n int) []int32 {
	return r.m.cellOrder(&r.rp.retPerm, "retperm", r.bank, r.row, n)
}

// AppendWeakFailures appends to dst the positions of the row's engineered
// weak cells that have failed after elapsedMS. A weak cell may also be among
// the failed bulk cells.
func (r *RetentionRow) AppendWeakFailures(dst []int32, elapsedMS float64) []int32 {
	if r.rp == nil {
		return dst
	}
	for _, c := range r.rp.weak {
		if elapsedMS*r.accel >= c.tierMS*r.weakScale {
			dst = append(dst, c.pos)
		}
	}
	return dst
}

// RetentionFlipPositions returns the bit positions in a row that have
// suffered retention failures after elapsedMS of unrefreshed time at
// voltage vpp and die temperature tempC. iter selects the measurement-noise
// realization. Positions are unique and unordered.
func (m *DeviceModel) RetentionFlipPositions(bank, rowAddr int, vpp, elapsedMS, tempC float64, iter int) []int32 {
	if elapsedMS <= 0 {
		return nil
	}
	r := m.RetentionRow(bank, rowAddr, vpp, tempC, iter)
	var out []int32
	if count := r.BulkCount(elapsedMS); count > 0 {
		out = append(out, r.BulkOrder(count)[:count]...)
	}
	bulk := len(out)
	for _, pos := range r.AppendWeakFailures(nil, elapsedMS) {
		if !slices.Contains(out[:bulk], pos) {
			out = append(out, pos)
		}
	}
	return out
}

// GroundTruthWeakCells returns the number of engineered weak cells in a row
// (test hook; characterization code must measure via retention sweeps).
func (m *DeviceModel) GroundTruthWeakCells(bank, rowAddr int) int {
	return len(m.row(bank, rowAddr).weak)
}
