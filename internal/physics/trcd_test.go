package physics

import (
	"math"
	"testing"
)

func moduleTRCDAt(m *DeviceModel, v float64, rows int) float64 {
	worst := 0.0
	for row := 0; row < rows; row++ {
		if r := m.GroundTruthRowTRCDNS(0, row, v); r > worst {
			worst = r
		}
	}
	return worst
}

func TestTRCDPassingModulesStayUnderNominal(t *testing.T) {
	for _, name := range []string{"A3", "B0", "C0", "A5"} {
		m := newTestModel(t, name)
		p := m.Profile()
		for _, v := range p.VPPLevels() {
			if got := moduleTRCDAt(m, v, 200); got >= TRCDNominalNS {
				t.Errorf("%s at VPP=%v: tRCDmin %v >= nominal 13.5", name, v, got)
			}
		}
	}
}

func TestTRCDFailingModulesExceedNominal(t *testing.T) {
	for _, name := range []string{"A0", "A1", "A2", "B2", "B5"} {
		m := newTestModel(t, name)
		p := m.Profile()
		atMin := moduleTRCDAt(m, p.VPPMin, 200)
		if atMin <= TRCDNominalNS {
			t.Errorf("%s at VPPmin: tRCDmin %v, want > 13.5", name, atMin)
		}
		if atMin >= p.TRCDFixNS {
			t.Errorf("%s at VPPmin: tRCDmin %v, want < fix threshold %v", name, atMin, p.TRCDFixNS)
		}
		// At nominal VPP all modules operate within the guardband.
		if atNom := moduleTRCDAt(m, 2.5, 200); atNom >= TRCDNominalNS {
			t.Errorf("%s at nominal VPP: tRCDmin %v >= 13.5", name, atNom)
		}
	}
}

func TestTRCDMonotoneInVoltage(t *testing.T) {
	m := newTestModel(t, "A0")
	for row := 0; row < 50; row++ {
		prev := 0.0
		for v := 2.5; v >= m.Profile().VPPMin-1e-9; v -= 0.1 {
			r := m.GroundTruthRowTRCDNS(0, row, v)
			if r < prev-1e-9 {
				t.Fatalf("row %d: tRCD decreased as VPP dropped at %v", row, v)
			}
			prev = r
		}
	}
}

func TestTRCDGuardbandReduction(t *testing.T) {
	// Average guardband reduction across passing modules should be near the
	// paper's 21.9%.
	var sum float64
	var n int
	for _, p := range Profiles() {
		if p.TRCDFailsNominal {
			continue
		}
		m := NewDeviceModel(p, testGeometry(), 1234)
		gbNom := TRCDNominalNS - moduleTRCDAt(m, 2.5, 100)
		gbMin := TRCDNominalNS - moduleTRCDAt(m, p.VPPMin, 100)
		if gbNom <= 0 {
			t.Fatalf("%s: no guardband at nominal VPP", p.Name)
		}
		sum += 1 - gbMin/gbNom
		n++
	}
	mean := sum / float64(n)
	if mean < 0.14 || mean > 0.30 {
		t.Errorf("mean guardband reduction = %v, want ~0.219", mean)
	}
}

func TestColumnTRCDWorstColumnDominates(t *testing.T) {
	m := newTestModel(t, "A3")
	rowReq := m.GroundTruthRowTRCDNS(0, 9, 2.0)
	r := m.TRCDRow(0, 9, 2.0)
	worst := 0.0
	for col := 0; col < m.Geometry().Columns(); col++ {
		req := r.ColumnReqNS(col, 0)
		if req > worst {
			worst = req
		}
	}
	if math.Abs(worst-rowReq) > 0.25 {
		t.Errorf("worst column req %v vs row req %v (noise margin 0.25)", worst, rowReq)
	}
}

func TestTRCDFlipsOnlyOnViolation(t *testing.T) {
	m := newTestModel(t, "A3")
	r := m.TRCDRow(0, 4, 2.5)
	req := r.ColumnReqNS(2, 0)
	if flips := r.AppendFlips(nil, 2, req+0.5, 0); len(flips) != 0 {
		t.Errorf("flips despite meeting requirement: %d", len(flips))
	}
	flips := r.AppendFlips(nil, 2, req-1.0, 0)
	if len(flips) == 0 {
		t.Error("no flips despite violating requirement by 1ns")
	}
	colBits := 64 * 8
	for _, pos := range flips {
		if int(pos) < 2*colBits || int(pos) >= 3*colBits {
			t.Errorf("flip position %d outside column 2's bit range", pos)
		}
	}
}

func TestTRCDFlipsGrowWithShortfall(t *testing.T) {
	m := newTestModel(t, "A3")
	r := m.TRCDRow(0, 4, 2.5)
	req := r.ColumnReqNS(0, 0)
	small := len(r.AppendFlips(nil, 0, req-0.5, 0))
	big := len(r.AppendFlips(nil, 0, req-4.0, 0))
	if big <= small {
		t.Errorf("flips at large shortfall (%d) not above small shortfall (%d)", big, small)
	}
}

func TestTRCDFixThresholdsHold(t *testing.T) {
	// At the published fix latencies (24ns Mfr A, 15ns Mfr B) no column of
	// any tested row violates timing even at VPPmin.
	for _, name := range []string{"A0", "B5"} {
		m := newTestModel(t, name)
		p := m.Profile()
		for row := 0; row < 60; row++ {
			r := m.TRCDRow(0, row, p.VPPMin)
			for col := 0; col < m.Geometry().Columns(); col++ {
				for iter := 0; iter < 3; iter++ {
					if flips := r.AppendFlips(nil, col, p.TRCDFixNS, iter); len(flips) != 0 {
						t.Fatalf("%s row %d col %d: flips at fix tRCD %vns", name, row, col, p.TRCDFixNS)
					}
				}
			}
		}
	}
}

// BenchmarkColumnReqNS evaluates every column's requirement of an 8 KiB row
// at VPPmin for one Alg. 2 iteration, as a sweep below SafeNS does.
func BenchmarkColumnReqNS(b *testing.B) {
	p, _ := ProfileByName("A0")
	m := NewDeviceModel(p, FullGeometry(), 2022)
	r := m.TRCDRow(0, 1000, p.VPPMin)
	cols := m.Geometry().Columns()
	var sink float64
	for i := 0; i < b.N; i++ {
		for col := range cols {
			sink += r.ColumnReqNS(col, i)
		}
	}
	_ = sink
}
