package physics

import (
	"math"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// tRCD-model constants.
const (
	// trcdGuardbandRetention is the average fraction of the nominal-tRCD
	// guardband that survives at VPPmin for modules that keep working with
	// nominal timings (the paper measures a 21.9 % average guardband
	// reduction, §6.1).
	trcdGuardbandRetention = 1 - 0.219
	// trcdVoltageExponent shapes how activation latency grows as VPP
	// drops; a slightly super-linear response matches both the real-device
	// curves (Fig. 7) and the SPICE distributions (Fig. 8b).
	trcdVoltageExponent = 1.3
	// trcdColumnJitterNS is the scale of per-column variation below the
	// row's worst-case column.
	trcdColumnJitterNS = 0.35
	// trcdIterNoiseNS is the per-measurement latency noise (§4.3 runs each
	// test ten times and keeps the worst case).
	trcdIterNoiseNS = 0.06
)

// trcdModel holds the module-level activation-latency calibration: the
// worst-row tRCD at nominal VPP and the voltage-response coefficient fit so
// the value at VPPmin hits the module's target (either the guardband-
// retention rule for passing modules or the published fix thresholds for the
// five failing ones).
type trcdModel struct {
	baseNS float64 // worst-row minimum reliable tRCD at VPP = 2.5 V
	coeff  float64 // voltage response: t(v) = base * (1 + coeff*(2.5-v)^exp)
	capNS  float64 // hard ceiling (fix threshold + margin headroom)
}

// calibrateTRCD samples the per-module activation-latency model.
func calibrateTRCD(prof ModuleProfile, s *rng.Stream) trcdModel {
	var base, target, capNS float64
	if prof.TRCDFailsNominal {
		// The five failing modules start inside the guardband at nominal
		// VPP and blow past 13.5 ns as VPP drops; the fix thresholds are
		// 24 ns (Mfr A) and 15 ns (Mfr B).
		base = s.Uniform(12.0, 12.9)
		switch prof.Mfr {
		case MfrA:
			target = s.Uniform(20.5, 23.4)
		default:
			target = s.Uniform(14.0, 14.6)
		}
		capNS = prof.TRCDFixNS - 0.15
	} else {
		base = s.Uniform(10.0, 11.8)
		gb := TRCDNominalNS - base
		target = TRCDNominalNS - trcdGuardbandRetention*gb + s.Normal(0, 0.12)
		if target > TRCDNominalNS-0.1 {
			target = TRCDNominalNS - 0.1
		}
		capNS = TRCDNominalNS - 0.05
	}
	dv := VPPNominal - prof.VPPMin
	coeff := 0.0
	if dv > 0.01 && target > base {
		coeff = (target/base - 1) / math.Pow(dv, trcdVoltageExponent)
	}
	return trcdModel{baseNS: base, coeff: coeff, capNS: capNS}
}

// rowBaseNS samples one row's worst-column tRCD at nominal VPP. Rows sit at
// or slightly below the module's worst row, so the maximum across tested
// rows reproduces the module-level curve of Fig. 7.
func (t trcdModel) rowBaseNS(s *rng.Stream) float64 {
	d := s.Exp(1 / 0.4)
	if d > 2.0 {
		d = 2.0
	}
	return t.baseNS - d
}

// rowReqNS evaluates a row's worst-column tRCD requirement at voltage v.
func (t trcdModel) rowReqNS(rowBase, rowScale, v float64) float64 {
	dv := VPPNominal - v
	if dv < 0 {
		dv = 0
	}
	req := rowBase * (1 + t.coeff*rowScale*math.Pow(dv, trcdVoltageExponent))
	// The cap mirrors the paper's finding that the published fix latencies
	// (24 ns / 15 ns) restore reliable operation for every failing module.
	capNS := t.capNS + (rowBase - t.baseNS) // weaker rows stay under the cap
	if req > capNS {
		req = capNS
	}
	return req
}

// TRCDRow holds the terms of a row's activation-latency response that stay
// fixed while the row is open at one VPP: the noiseless worst-column
// requirement, the index of the worst column and the per-column jitter
// below it, which the row samples once, on the first query below SafeNS.
// Only the per-iteration noise is drawn per read.
type TRCDRow struct {
	m         *DeviceModel
	rp        *rowParams
	bank, row int
	reqNS     float64    // worst-column requirement without noise
	worst     int        // column whose requirement is reqNS before noise
	safeNS    float64    // no column's requirement reaches this latency
	iter      rng.Prefix // "trcditer" over (bank, row)
}

// TRCDRow returns the row-invariant activation-latency terms of a row at
// voltage vpp.
func (m *DeviceModel) TRCDRow(bank, rowAddr int, vpp float64) TRCDRow {
	rp := m.row(bank, rowAddr)
	req := m.trcd.rowReqNS(rp.trcdBase, rp.trcdScale, vpp)
	return TRCDRow{
		m: m, rp: rp, bank: bank, row: rowAddr,
		reqNS: req,
		worst: rp.trcdWorst,
		// The column jitter only lowers a requirement and the iteration
		// noise adds at most MaxAbsNorm standard deviations, so no draw can
		// push a requirement to safeNS.
		safeNS: req + rng.MaxAbsNorm*trcdIterNoiseNS,
		iter:   m.root.Prefix("trcditer", bank, rowAddr),
	}
}

// SafeNS returns the latency at and past which no column of the row fails
// in any iteration, so AppendFlips appends nothing.
func (r *TRCDRow) SafeNS() float64 { return r.safeNS }

// ColumnSafeNS returns the latency at and past which column col fails in no
// iteration: its noiseless requirement plus the iteration noise's bound, by
// the argument of SafeNS. It is SafeNS for the worst column and at most
// SafeNS for every other.
func (r *TRCDRow) ColumnSafeNS(col int) float64 {
	return r.reqNS - r.jitter()[col] + rng.MaxAbsNorm*trcdIterNoiseNS
}

// ColumnReqNS returns the minimum reliable activation-to-read latency of
// column col (ns) for measurement iteration iter.
func (r *TRCDRow) ColumnReqNS(col, iter int) float64 {
	is := r.iter.Ints(col, iter)
	return r.reqNS - r.jitter()[col] + is.Normal(0, trcdIterNoiseNS)
}

// jitter returns the row's per-column offsets below its requirement,
// sampling them on first use. One hash-selected worst column defines the
// row's requirement and has offset 0; the others are faster by a
// deterministic jitter drawn from their own stream.
func (r *TRCDRow) jitter() []float64 {
	if r.rp.trcdJit == nil {
		cols := r.m.geom.Columns()
		jit := make([]float64, cols) //detlint:ignore hotalloc one-time lazy per-row sampling, amortized over the row's reads
		p := r.m.root.Prefix("trcdcol", r.bank, r.row)
		for col := range cols {
			if col != r.worst {
				cs := p.Ints(col)
				jit[col] = math.Abs(cs.Normal(0, trcdColumnJitterNS))
			}
		}
		r.rp.trcdJit = jit
	}
	return r.rp.trcdJit
}

// AppendFlips appends to dst the bit positions (row-relative), in draw
// order, corrupted when column col is read trcdNS after activation in
// measurement iteration iter. A read that honors the column's requirement
// appends nothing; a violation flips a handful of the column's weakest
// bits, growing with the timing shortfall. Reads at or beyond the row's
// noise bound skip the draws: their outcome is known without them.
func (r *TRCDRow) AppendFlips(dst []int32, col int, trcdNS float64, iter int) []int32 {
	if trcdNS >= r.safeNS || trcdNS >= r.ColumnSafeNS(col) {
		return dst
	}
	req := r.ColumnReqNS(col, iter)
	if trcdNS >= req {
		return dst
	}
	shortfall := req - trcdNS
	nf := 1 + int(shortfall/0.4)
	const colBits = 64 * 8
	if nf > colBits {
		nf = colBits
	}
	s := r.m.root.DeriveInts("trcdbits", r.bank, r.row, col)
	base := int32(col * colBits)
	var seen [colBits / 64]uint64
	for added := 0; added < nf; {
		bit := s.Intn(colBits)
		if w, mask := bit/64, uint64(1)<<(bit%64); seen[w]&mask == 0 {
			seen[w] |= mask
			dst = append(dst, base+int32(bit))
			added++
		}
	}
	return dst
}

// GroundTruthRowTRCDNS returns the row's true worst-column tRCD requirement
// at voltage vpp without measurement noise (test hook).
func (m *DeviceModel) GroundTruthRowTRCDNS(bank, rowAddr int, vpp float64) float64 {
	rp := m.row(bank, rowAddr)
	return m.trcd.rowReqNS(rp.trcdBase, rp.trcdScale, vpp)
}
