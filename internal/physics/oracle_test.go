package physics

import (
	"math"
	"slices"
	"testing"

	"github.com/dramstudy/rhvpp/internal/pattern"
)

// The ref* functions are the per-call tRCD and retention evaluations the
// row-term types replaced, kept verbatim as the oracle: every stream is
// re-derived on every call and flips are deduplicated through maps.

func refColumnTRCDReqNS(m *DeviceModel, bank, rowAddr, col int, vpp float64, iter int) float64 {
	rp := m.row(bank, rowAddr)
	req := m.trcd.rowReqNS(rp.trcdBase, rp.trcdScale, vpp)
	colStream := m.root.Derive("trcdcol", bank, rowAddr, col)
	worst := m.root.Derive("trcdworst", bank, rowAddr).Intn(m.geom.Columns())
	if col != worst {
		req -= math.Abs(colStream.Normal(0, trcdColumnJitterNS))
	}
	req += m.root.Derive("trcditer", bank, rowAddr, col, iter).Normal(0, trcdIterNoiseNS)
	return req
}

func refTRCDFlipPositions(m *DeviceModel, bank, rowAddr, col int, trcdNS, vpp float64, iter int) []int32 {
	req := refColumnTRCDReqNS(m, bank, rowAddr, col, vpp, iter)
	if trcdNS >= req {
		return nil
	}
	shortfall := req - trcdNS
	nf := 1 + int(shortfall/0.4)
	colBits := 64 * 8
	if nf > colBits {
		nf = colBits
	}
	s := m.root.Derive("trcdbits", bank, rowAddr, col)
	base := int32(col * colBits)
	seen := make(map[int32]bool, nf)
	out := make([]int32, 0, nf)
	for len(out) < nf {
		pos := base + int32(s.Intn(colBits))
		if !seen[pos] {
			seen[pos] = true
			out = append(out, pos)
		}
	}
	return out
}

func refBulkProb(r retentionModel, elapsedMS, v, tempC, lambda float64) float64 {
	if elapsedMS <= 0 {
		return 0
	}
	accel := math.Pow(2, (tempC-retentionTempRefC)/10)
	tEff := elapsedMS * accel / (r.rho(v) * lambda)
	f := Phi((math.Log(tEff) - r.mu) / r.sigma)
	if f <= r.floorF {
		return 0
	}
	return (f - r.floorF) / (1 - r.floorF)
}

func refWeakFailed(r retentionModel, c weakCell, elapsedMS, v, tempC float64) bool {
	accel := math.Pow(2, (tempC-retentionTempRefC)/10)
	tau := c.tierMS * math.Pow(r.rho(v)/r.rho(r.vppMin), weakVoltageExponent)
	return elapsedMS*accel >= tau
}

func refRetentionNoise(m *DeviceModel, bank, rowAddr, iter int) float64 {
	return math.Exp(m.root.Derive("rnoise", bank, rowAddr, iter).Normal(0, 0.05))
}

func refBulkCount(m *DeviceModel, bank, rowAddr int, vpp, elapsedMS, tempC float64, iter int) int {
	rp := m.row(bank, rowAddr)
	n := m.geom.RowBits()
	p := refBulkProb(m.retention, elapsedMS*refRetentionNoise(m, bank, rowAddr, iter), vpp, tempC, rp.retLambda)
	count := int(p*float64(n) + rp.flipFrac)
	if count > n {
		count = n
	}
	return count
}

// refCellOrder is the row's whole weakest-first cell order under label:
// one Fisher–Yates shuffle of the row from its derived stream, kept whole.
func refCellOrder(m *DeviceModel, label string, bank, rowAddr int) []int32 {
	s := m.root.DeriveInts(label, bank, rowAddr)
	p := make([]int32, m.geom.RowBits())
	s.PermInto(p)
	return p
}

// refRetentionFlipPositions takes the row's whole retention order, order.
func refRetentionFlipPositions(m *DeviceModel, order []int32, bank, rowAddr int, vpp, elapsedMS, tempC float64, iter int) []int32 {
	if elapsedMS <= 0 || vpp < m.prof.VPPMin-1e-9 {
		return nil
	}
	rp := m.row(bank, rowAddr)
	count := refBulkCount(m, bank, rowAddr, vpp, elapsedMS, tempC, iter)
	var out []int32
	if count > 0 {
		out = append(out, order[:count]...)
	}
	if len(rp.weak) > 0 {
		seen := make(map[int32]bool, len(out))
		for _, pos := range out {
			seen[pos] = true
		}
		for _, c := range rp.weak {
			if refWeakFailed(m.retention, c, elapsedMS, vpp, tempC) && !seen[c.pos] {
				out = append(out, c.pos)
				seen[c.pos] = true
			}
		}
	}
	return out
}

func refHammerNoise(m *DeviceModel, bank, rowAddr, iter int) float64 {
	return m.root.Derive("hnoise", bank, rowAddr, iter).Normal(0, measurementNoiseSigma)
}

func TestTRCDRowMatchesPerCallOracle(t *testing.T) {
	const bank = 1
	for _, name := range []string{"A0", "A3", "B2", "B5", "C0"} {
		p, _ := ProfileByName(name)
		m := NewDeviceModel(p, FullGeometry(), 2022)
		for _, vpp := range []float64{VPPNominal, 2.0, p.VPPMin} {
			for _, row := range []int{0, 17, 4711, 32767} {
				r := m.TRCDRow(bank, row, vpp)
				if worst := m.root.Derive("trcdworst", bank, row).Intn(m.geom.Columns()); worst != r.worst {
					t.Fatalf("%s row %d: worst column %d, oracle %d", name, row, r.worst, worst)
				}
				for col := 0; col < m.geom.Columns(); col += 9 {
					for _, iter := range []int{0, 1, 9} {
						req := refColumnTRCDReqNS(m, bank, row, col, vpp, iter)
						if got := r.ColumnReqNS(col, iter); got != req {
							t.Fatalf("%s vpp %v row %d col %d iter %d: requirement %v, oracle %v", name, vpp, row, col, iter, got, req)
						}
						if req >= r.safeNS {
							t.Fatalf("%s row %d col %d: requirement %v reaches the skip bound %v", name, row, col, req, r.safeNS)
						}
						// Both sides of the requirement and of the skip bound,
						// the controller's safe read, and the 1.5 ns grid.
						colSafe := r.ColumnSafeNS(col)
						for _, trcd := range []float64{req - 4, req - 0.4, req - 1e-9, req, req + 1e-9, colSafe - 1e-9, colSafe, r.safeNS - 1e-9, r.safeNS, 30, 12, 13.5} {
							got := r.AppendFlips(nil, col, trcd, iter)
							want := refTRCDFlipPositions(m, bank, row, col, trcd, vpp, iter)
							if !slices.Equal(got, want) {
								t.Fatalf("%s vpp %v row %d col %d iter %d tRCD %v: flips %v, oracle %v", name, vpp, row, col, iter, trcd, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestRetentionRowMatchesPerCallOracle(t *testing.T) {
	const bank = 0
	weakRows := 0
	for _, p := range Profiles() {
		m := NewDeviceModel(p, FullGeometry(), 7)
		for row := 0; row < 24; row++ {
			if len(m.row(bank, row).weak) > 0 {
				weakRows++
			}
			order := refCellOrder(m, "retperm", bank, row)
			for _, vpp := range []float64{VPPNominal, 1.8, p.VPPMin, p.VPPMin - 0.1} {
				for _, temp := range []float64{RetentionTestTempC, 50, 95} {
					for _, ms := range []float64{-1, 0, 0.001, 64, 128, 1000, 4000, 16000} {
						for _, iter := range []int{0, 3} {
							got := m.RetentionFlipPositions(bank, row, vpp, ms, temp, iter)
							want := refRetentionFlipPositions(m, order, bank, row, vpp, ms, temp, iter)
							if !slices.Equal(got, want) {
								t.Fatalf("%s row %d vpp %v %v°C %vms iter %d: %d flips, oracle %d", p.Name, row, vpp, temp, ms, iter, len(got), len(want))
							}
						}
					}
				}
			}
		}
	}
	if weakRows == 0 {
		t.Fatal("no sampled row carries weak cells; the oracle never exercised them")
	}
}

// TestBulkCountQuietBoundMatchesOracle straddles the quiet bound, below
// which BulkCount returns 0 without drawing the noise, and the floor
// crossing of each actual noise draw, at the smallest retention scale
// (VPPmin) and across the tested temperatures and many iterations.
func TestBulkCountQuietBoundMatchesOracle(t *testing.T) {
	const bank = 0
	skipped, counted := 0, 0
	for _, name := range []string{"A0", "A3", "B3", "B6", "C0", "C4"} {
		p, _ := ProfileByName(name)
		m := NewDeviceModel(p, FullGeometry(), 2022)
		for _, vpp := range []float64{p.VPPMin, 1.8, VPPNominal} {
			for _, temp := range []float64{30, 45, 60, RetentionTestTempC, 95} {
				for _, row := range []int{0, 4711, 32767} {
					for iter := 0; iter < 40; iter++ {
						r := m.RetentionRow(bank, row, vpp, temp, iter)
						q := r.quietMS
						// The elapsed time at which this draw's tEff reaches
						// the screening floor.
						cross := retentionFloorMS * r.rhoLambda / (r.accel * refRetentionNoise(m, bank, row, iter))
						if cross <= q {
							t.Fatalf("%s vpp %v %v°C row %d iter %d: floor crossing %v at or below the quiet bound %v", name, vpp, temp, row, iter, cross, q)
						}
						for _, ms := range []float64{0, q / 2, q * (1 - 1e-6), q, q * (1 + 1e-6), cross * (1 - 1e-9), cross, cross * (1 + 1e-9), cross * 1.5, 4000} {
							want := refBulkCount(m, bank, row, vpp, ms, temp, iter)
							fresh := m.RetentionRow(bank, row, vpp, temp, iter)
							if got := fresh.BulkCount(ms); got != want {
								t.Fatalf("%s vpp %v %v°C row %d iter %d %vms: bulk count %d, oracle %d", name, vpp, temp, row, iter, ms, got, want)
							}
							if ms < q {
								if fresh.noise != 0 {
									t.Fatalf("%s row %d iter %d: a read %vms below the quiet bound %vms drew the noise", name, row, iter, ms, q)
								}
								skipped++
							} else {
								counted++
							}
						}
					}
				}
			}
		}
	}
	if skipped == 0 || counted == 0 {
		t.Fatalf("%d quiet and %d evaluated reads; the grid misses one side of the bound", skipped, counted)
	}
}

// TestBulkCountLazyNoiseKeepsCounts reads one RetentionRow below the quiet
// bound, above the floor, and below the bound again, as the read path does
// for a row it reads before and after a wait: every count must match the
// oracle, whichever read drew the noise.
func TestBulkCountLazyNoiseKeepsCounts(t *testing.T) {
	p, _ := ProfileByName("C0")
	m := NewDeviceModel(p, FullGeometry(), 7)
	for row := 0; row < 16; row++ {
		for iter := 0; iter < 4; iter++ {
			r := m.RetentionRow(1, row, p.VPPMin, 95, iter)
			for _, ms := range []float64{1e-6, r.quietMS / 2, 16000, 4000, 1e-6, r.quietMS * 0.999} {
				if got, want := r.BulkCount(ms), refBulkCount(m, 1, row, p.VPPMin, ms, 95, iter); got != want {
					t.Fatalf("row %d iter %d %vms: bulk count %d, oracle %d", row, iter, ms, got, want)
				}
			}
		}
	}
}

func TestHammerNoiseMatchesPerCallOracle(t *testing.T) {
	p, _ := ProfileByName("B3")
	m := NewDeviceModel(p, FullGeometry(), 2022)
	for _, row := range []int{0, 255, 256, 4711, 32767} {
		for iter := 0; iter < 12; iter++ {
			ns := m.row(0, row).hnoise.Ints(iter)
			if got, want := ns.Normal(0, measurementNoiseSigma), refHammerNoise(m, 0, row, iter); got != want {
				t.Fatalf("row %d iter %d: hammer noise %v, oracle %v", row, iter, got, want)
			}
		}
	}
}

// bulkStep returns the elapsed time, within (loMS, hiMS], at which the
// oracle's bulk count first exceeds its count at loMS, or 0 if it never
// does. The count is monotone in the elapsed time, so bisection finds it.
func bulkStep(m *DeviceModel, bank, row int, vpp, tempC float64, iter int, loMS, hiMS float64) float64 {
	c0 := refBulkCount(m, bank, row, vpp, loMS, tempC, iter)
	if refBulkCount(m, bank, row, vpp, hiMS, tempC, iter) == c0 {
		return 0
	}
	for i := 0; i < 200 && hiMS-loMS > loMS*1e-15; i++ {
		mid := (loMS + hiMS) / 2
		if refBulkCount(m, bank, row, vpp, mid, tempC, iter) == c0 {
			loMS = mid
		} else {
			hiMS = mid
		}
	}
	return hiMS
}

// TestBulkCountRangeMatchesPerReadCounts checks BulkCountRange over windows
// of a full-row readback (128 bursts 6 ns apart) and wider, placed at fixed
// retention times and straddling actual count steps: wherever it reports
// one count, the oracle's count at every one of 129 points across the
// window must be that count.
func TestBulkCountRangeMatchesPerReadCounts(t *testing.T) {
	const bank = 0
	uniform, fallback := 0, 0
	check := func(name string, m *DeviceModel, row int, vpp, temp float64, iter int, from, span float64) {
		t.Helper()
		r := m.RetentionRow(bank, row, vpp, temp, iter)
		count, ok := r.BulkCountRange(from, from+span)
		if !ok {
			fallback++
			return
		}
		uniform++
		for k := 0; k <= 128; k++ {
			ms := from + span*float64(k)/128
			if k == 128 {
				ms = from + span
			}
			if want := refBulkCount(m, bank, row, vpp, ms, temp, iter); want != count {
				t.Fatalf("%s vpp %v %v°C row %d iter %d: window [%v, %v] reports count %d, oracle at %vms is %d",
					name, vpp, temp, row, iter, from, from+span, count, ms, want)
			}
		}
	}
	const rowSpanMS = 128 * 6e-6
	for _, name := range []string{"A0", "B3", "B6", "C0"} {
		p, _ := ProfileByName(name)
		m := NewDeviceModel(p, FullGeometry(), 2022)
		for _, vpp := range []float64{p.VPPMin, 1.8, VPPNominal} {
			for _, temp := range []float64{RetentionTestTempC, 95} {
				for _, row := range []int{0, 4711} {
					for iter := 0; iter < 3; iter++ {
						q := m.RetentionRow(bank, row, vpp, temp, iter).quietMS
						for _, from := range []float64{q * 0.9999995, q, 400, 4000, 16000, 64000} {
							for _, span := range []float64{rowSpanMS, 1e-2, 1, 100} {
								check(name, m, row, vpp, temp, iter, from, span)
							}
						}
						// Windows straddling a step of the count, at the
						// step, and just past it.
						for _, at := range []float64{1000, 4000, 16000} {
							step := bulkStep(m, bank, row, vpp, temp, iter, at, 2*at)
							if step == 0 {
								continue
							}
							for _, from := range []float64{step - rowSpanMS/2, step - rowSpanMS, step, step + 1e-9} {
								check(name, m, row, vpp, temp, iter, from, rowSpanMS)
							}
						}
					}
				}
			}
		}
	}
	if uniform == 0 || fallback == 0 {
		t.Fatalf("%d uniform and %d fallback windows; the grid misses one path", uniform, fallback)
	}
	t.Logf("%d uniform and %d fallback windows", uniform, fallback)
}

// TestRekeyMatchesFreshRetentionRow moves one RetentionRow across
// measurement iterations, as the read path does when a row is rewritten,
// and checks every count against a fresh row at that iteration.
func TestRekeyMatchesFreshRetentionRow(t *testing.T) {
	p, _ := ProfileByName("B3")
	m := NewDeviceModel(p, FullGeometry(), 2022)
	const bank, row = 1, 77
	r := m.RetentionRow(bank, row, 1.8, RetentionTestTempC, 0)
	for _, iter := range []int{0, 1, 1, 5, 2, 0} {
		r.Rekey(iter)
		for _, ms := range []float64{1, 4000, 16000} {
			fresh := m.RetentionRow(bank, row, 1.8, RetentionTestTempC, iter)
			if got, want := r.BulkCount(ms), fresh.BulkCount(ms); got != want {
				t.Fatalf("iter %d %vms: rekeyed count %d, fresh %d", iter, ms, got, want)
			}
			if want := refBulkCount(m, bank, row, 1.8, ms, RetentionTestTempC, iter); r.BulkCount(ms) != want {
				t.Fatalf("iter %d %vms: rekeyed count %d, oracle %d", iter, ms, r.BulkCount(ms), want)
			}
		}
	}
}

// TestRetentionSigmaBound pins the spread cdfSlack's error argument assumes.
func TestRetentionSigmaBound(t *testing.T) {
	for _, p := range Profiles() {
		m := NewDeviceModel(p, FullGeometry(), 2022)
		if s := m.retention.sigma; s < 1.2 {
			t.Errorf("%s: retention sigma %v below 1.2", p.Name, s)
		}
	}
}

// TestColumnReqNSMatchesDeriveIntsOracle recomputes every column's
// requirement from freshly derived "trcdcol" and "trcditer" streams, with
// the row's worst column undisturbed, and checks the per-column bound the
// Alg. 2 sweep skips by: each requirement lies below its column's bound,
// which is SafeNS for the worst column and at most SafeNS for the others.
func TestColumnReqNSMatchesDeriveIntsOracle(t *testing.T) {
	const bank = 2
	for _, name := range []string{"A0", "B5", "C0"} {
		p, _ := ProfileByName(name)
		m := NewDeviceModel(p, FullGeometry(), 7)
		for _, row := range []int{3, 1000, 32766} {
			for _, vpp := range []float64{p.VPPMin, 2.0, VPPNominal, p.VPPMin} {
				r := m.TRCDRow(bank, row, vpp)
				reqNS := m.GroundTruthRowTRCDNS(bank, row, vpp)
				worstSeen := false
				for col := range m.geom.Columns() {
					base := reqNS
					if col != r.worst {
						cs := m.root.DeriveInts("trcdcol", bank, row, col)
						base -= math.Abs(cs.Normal(0, trcdColumnJitterNS))
					}
					colSafe := r.ColumnSafeNS(col)
					if colSafe > r.SafeNS() {
						t.Fatalf("%s row %d col %d: column bound %v above the row's %v", name, row, col, colSafe, r.SafeNS())
					}
					if col == r.worst {
						worstSeen = true
						if colSafe != r.SafeNS() {
							t.Fatalf("%s row %d: worst column's bound %v, SafeNS %v", name, row, colSafe, r.SafeNS())
						}
					}
					for iter := range 24 {
						is := m.root.DeriveInts("trcditer", bank, row, col, iter)
						want := base + is.Normal(0, trcdIterNoiseNS)
						got := r.ColumnReqNS(col, iter)
						if got != want {
							t.Fatalf("%s vpp %v row %d col %d iter %d: requirement %v, oracle %v", name, vpp, row, col, iter, got, want)
						}
						if got >= colSafe {
							t.Fatalf("%s row %d col %d iter %d: requirement %v reaches the column bound %v", name, row, col, iter, got, colSafe)
						}
					}
				}
				if !worstSeen {
					t.Fatalf("%s row %d: worst column %d outside the row", name, row, r.worst)
				}
			}
		}
	}
}

// TestHammerFlipCountMemoMatchesFreshModel asks one long-lived model, whose
// per-row hammer curve is memoized, and a fresh model per call, which has
// nothing memoized, the same questions while VPP moves back and forth
// across every pattern, several temperatures, exposures and iterations.
func TestHammerFlipCountMemoMatchesFreshModel(t *testing.T) {
	const bank, seed = 1, 2022
	for _, name := range []string{"A2", "B3"} {
		p, _ := ProfileByName(name)
		memo := NewDeviceModel(p, testGeometry(), seed)
		vpps := []float64{VPPNominal, p.VPPMin, VPPNominal, 2.0, 2.0, p.VPPMin, VPPNominal}
		flipped := 0
		for _, row := range []int{5, 700} {
			hcf := memo.GroundTruthHCFirst(bank, row, VPPNominal)
			for _, vpp := range vpps {
				for _, pat := range pattern.All() {
					for _, tempC := range []float64{50, 80} {
						for _, hcEq := range []float64{0.5 * hcf, 1.2 * hcf, 4 * hcf} {
							for _, iter := range []int{0, 7} {
								fresh := NewDeviceModel(p, testGeometry(), seed)
								got := memo.HammerFlipCount(bank, row, pat, vpp, hcEq, tempC, iter)
								want := fresh.HammerFlipCount(bank, row, pat, vpp, hcEq, tempC, iter)
								if got != want {
									t.Fatalf("%s row %d %v vpp %v %v C hcEq %v iter %d: memoized %d flips, fresh %d", name, row, pat, vpp, tempC, hcEq, iter, got, want)
								}
								flipped += min(got, 1)
							}
						}
					}
				}
			}
		}
		if flipped == 0 {
			t.Fatalf("%s: no query flipped a bit; the curve went untested", name)
		}
	}
}
