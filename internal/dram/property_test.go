package dram

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/rng"
)

// TestQuickRandomCommandSequences drives the module with arbitrary command
// streams: every command must either succeed or fail with one of the typed
// protocol errors — never panic, never corrupt the device invariants.
func TestQuickRandomCommandSequences(t *testing.T) {
	p, _ := physics.ProfileByName("B0")
	f := func(seed uint64, ops []byte) bool {
		m := NewModule(p, testGeometry(), 3, WithScheme(mapping.Direct{}))
		s := rng.New(seed)
		at := PS(0)
		for _, op := range ops {
			at += PS(s.Intn(100_000) + 1)
			bank := s.Intn(3) - 1 // occasionally invalid
			row := s.Intn(m.Geometry().RowsPerBank+10) - 5
			col := s.Intn(m.Geometry().Columns()+2) - 1
			var err error
			switch op % 7 {
			case 0:
				err = m.Activate(at, bank, row)
			case 1:
				err = m.Precharge(at, bank)
			case 2:
				_, err = m.Read(nil, at, bank, col)
			case 3:
				err = m.Write(at, bank, col, make([]byte, BurstBytes))
			case 4:
				err = m.ActivateMany(at, bank, row, s.Intn(5000))
				at = m.Now()
			case 5:
				err = m.Refresh(at)
			case 6:
				err = m.Wait(at)
			}
			if err != nil && !isProtocolError(err) {
				t.Logf("op %d: unexpected error type: %v", op, err)
				return false
			}
			if m.Now() > at {
				at = m.Now()
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func isProtocolError(err error) bool {
	for _, want := range []error{ErrNoComm, ErrBankOpen, ErrBankClosed, ErrBadAddress, ErrTimeRegression} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestQuickReadAfterWriteIntegrity verifies that within the retention-safe
// window and without hammering, every written row image reads back exactly.
func TestQuickReadAfterWriteIntegrity(t *testing.T) {
	p, _ := physics.ProfileByName("A3")
	f := func(seed uint64, fillRaw byte, rowRaw uint16) bool {
		m := NewModule(p, testGeometry(), 3, WithScheme(mapping.Direct{}))
		row := int(rowRaw) % m.Geometry().RowsPerBank
		image := make([]byte, m.Geometry().RowBytes)
		s := rng.New(seed)
		for i := range image {
			image[i] = byte(s.Intn(256))
		}
		at := PS(0)
		if err := m.Activate(at, 0, row); err != nil {
			return false
		}
		at += NSToPS(physics.TRCDNominalNS)
		if err := m.WriteRow(at, 0, row, 0x00); err != nil {
			return false
		}
		for col := 0; col < m.Geometry().Columns(); col++ {
			if err := m.Write(at, 0, col, image[col*BurstBytes:(col+1)*BurstBytes]); err != nil {
				return false
			}
		}
		at += NSToPS(physics.TRASNominalNS)
		if err := m.Precharge(at, 0); err != nil {
			return false
		}
		at += NSToPS(physics.TRPNominalNS)
		if err := m.Activate(at, 0, row); err != nil {
			return false
		}
		at += NSToPS(physics.TRCDNominalNS * 2) // generous timing
		for col := 0; col < m.Geometry().Columns(); col++ {
			d, err := m.Read(nil, at, 0, col)
			if err != nil {
				return false
			}
			for i, b := range d {
				if b != image[col*BurstBytes+i] {
					return false
				}
			}
			at += NSToPS(5)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickHammerMonotonicity: for any victim and hammer counts a < b, the
// observed flip count at b is at least the count at a (physical damage
// accumulates).
func TestQuickHammerMonotonicity(t *testing.T) {
	p, _ := physics.ProfileByName("B0")
	f := func(rowRaw uint16, aRaw, bRaw uint32) bool {
		row := 100 + int(rowRaw)%400
		a := int(aRaw % 300_000)
		b := a + int(bRaw%300_000)
		flipsAt := func(hc int) int {
			m := NewModule(p, testGeometry(), 9, WithScheme(mapping.Direct{}))
			at := PS(0)
			init := func(r int, fill byte) {
				_ = m.Activate(at, 0, r)
				at += NSToPS(14)
				_ = m.WriteRow(at, 0, r, fill)
				at += NSToPS(35)
				_ = m.Precharge(at, 0)
				at += NSToPS(14)
			}
			init(row, 0xFF)
			init(row-1, 0x00)
			init(row+1, 0x00)
			_ = m.ActivateMany(at, 0, row-1, hc)
			_ = m.ActivateMany(m.Now(), 0, row+1, hc)
			at = m.Now()
			_ = m.Activate(at, 0, row)
			at += NSToPS(30)
			flips := 0
			for col := 0; col < m.Geometry().Columns(); col++ {
				d, err := m.Read(nil, at, 0, col)
				if err != nil {
					return -1
				}
				for _, v := range d {
					x := v ^ 0xFF
					for x != 0 {
						x &= x - 1
						flips++
					}
				}
				at += NSToPS(5)
			}
			return flips
		}
		fa, fb := flipsAt(a), flipsAt(b)
		return fa >= 0 && fb >= fa
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
