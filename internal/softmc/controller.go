// Package softmc implements the FPGA-based memory-controller abstraction the
// characterization algorithms drive, modeled on the SoftMC infrastructure the
// paper extends for DDR4 (§4.1). The controller owns the command clock,
// schedules commands on the FPGA's 1.5 ns quantum (§4.3 footnote 10), applies
// the standard DDR4 timing parameters with an overridable tRCD (for the
// Alg. 2 latency sweeps), and exposes the bulk row-initialization, hammering,
// readback, and wait primitives the test programs are written in.
//
// Like the real infrastructure, the controller issues no refresh commands
// unless a test explicitly asks for them, which both avoids retention
// interference and starves any in-DRAM TRR defense (§4.1 "Disabling Sources
// of Interference").
package softmc

import (
	"errors"
	"fmt"
	"math"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// ErrTimingOutOfRange is returned for nonsensical timing overrides.
var ErrTimingOutOfRange = errors.New("softmc: timing parameter out of range")

// Timing bundles the DDR4 timing parameters the controller enforces, in
// nanoseconds. Zero values mean "nominal".
type Timing struct {
	TRCD float64 // activate-to-read latency
	TRAS float64 // activate-to-precharge latency
	TRP  float64 // precharge-to-activate latency
	TCCD float64 // read-to-read (column-to-column) latency
}

// Nominal returns the JESD79-4 nominal timing set used by default.
func NominalTiming() Timing {
	return Timing{
		TRCD: physics.TRCDNominalNS,
		TRAS: physics.TRASNominalNS,
		TRP:  physics.TRPNominalNS,
		TCCD: 5.0,
	}
}

// Controller drives one module over the simulated channel.
type Controller struct {
	mod    *dram.Module
	timing Timing
	q      quanta // timing on the command quantum
	now    dram.PS
}

// quanta is a Timing rounded up to the command quantum once, in
// picoseconds: what each command adds to the clock.
type quanta struct {
	trcd, tras, trp, tccd dram.PS
	rest                  dram.PS // tRAS − tRCD when positive, else 0
}

func quantaOf(t Timing) quanta {
	q := quanta{
		trcd: quantizePS(t.TRCD), tras: quantizePS(t.TRAS),
		trp: quantizePS(t.TRP), tccd: quantizePS(t.TCCD),
	}
	if rest := t.TRAS - t.TRCD; rest > 0 {
		q.rest = quantizePS(rest)
	}
	return q
}

var (
	// nominalQuanta is what ResetTiming programs and what InitializeRow
	// always runs at.
	nominalQuanta = quantaOf(NominalTiming())
	// safeQuanta is nominal timing at the safe activation latency of the
	// data-comparison reads.
	safeQuanta = func() quanta {
		t := NominalTiming()
		t.TRCD = safeReadTRCDNS
		return quantaOf(t)
	}()
)

// New builds a controller for the module with nominal timing.
func New(mod *dram.Module) *Controller {
	return &Controller{mod: mod, timing: NominalTiming(), q: nominalQuanta}
}

// Module returns the attached module.
func (c *Controller) Module() *dram.Module { return c.mod }

// Now returns the controller's current command-clock time.
func (c *Controller) Now() dram.PS { return c.now }

// Timing returns the currently programmed timing parameters.
func (c *Controller) Timing() Timing { return c.timing }

// SetTRCD overrides the activate-to-read latency, quantized to the FPGA's
// 1.5 ns command scheduling granularity (values are rounded up so the
// programmed latency is never optimistically short).
func (c *Controller) SetTRCD(ns float64) error {
	if ns < physics.CommandQuantumNS || ns > 100 {
		return fmt.Errorf("%w: tRCD %.2fns", ErrTimingOutOfRange, ns)
	}
	c.timing.TRCD = quantize(ns)
	c.q = quantaOf(c.timing)
	return nil
}

// ResetTiming restores nominal timing parameters.
func (c *Controller) ResetTiming() { c.timing, c.q = NominalTiming(), nominalQuanta }

// quantize rounds a latency up to the FPGA's command quantum.
func quantize(ns float64) float64 {
	q := physics.CommandQuantumNS
	return math.Ceil(ns/q-1e-9) * q
}

// quantizePS is quantize in picoseconds, the step a command adds to the
// clock.
func quantizePS(ns float64) dram.PS { return dram.NSToPS(quantize(ns)) }

// Ping verifies the module responds at the current VPP by opening and
// closing row 0 of bank 0.
func (c *Controller) Ping() error {
	if err := c.mod.Activate(c.now, 0, 0); err != nil {
		return err
	}
	c.now += c.q.tras
	if err := c.mod.Precharge(c.now, 0); err != nil {
		return err
	}
	c.now += c.q.trp
	return nil
}

// InitializeRow fills an entire row with the given byte: ACT, a full-row
// write, then PRE. This is the initialize_row step of Algs. 1-3. It always
// runs at nominal timing, whatever tRCD is programmed, so a latency sweep
// initializes every row safely.
//
//detlint:hotpath witness=TestAlg2ColumnStepAllocsFree
func (c *Controller) InitializeRow(bank, row int, fill byte) error {
	if err := c.mod.Activate(c.now, bank, row); err != nil {
		return fmt.Errorf("init row %d: %w", row, err) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	c.now += nominalQuanta.trcd
	if err := c.mod.WriteRow(c.now, bank, row, fill); err != nil {
		return fmt.Errorf("init row %d: %w", row, err) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	// Honor charge restoration before closing the row.
	c.now += nominalQuanta.tras
	if err := c.mod.Precharge(c.now, bank); err != nil {
		return fmt.Errorf("init row %d: %w", row, err) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	c.now += nominalQuanta.trp
	return nil
}

// ReadRow activates a row using the programmed tRCD, streams out every
// column burst, precharges, and returns the full row image.
func (c *Controller) ReadRow(bank, row int) ([]byte, error) {
	return c.readRow(bank, row, c.q)
}

// readRow is ReadRow at timing q.
func (c *Controller) readRow(bank, row int, q quanta) ([]byte, error) {
	cols, err := c.openRow(bank, row, q)
	if err != nil {
		return nil, err
	}
	data, err := c.mod.ReadRange(make([]byte, 0, c.mod.Geometry().RowBytes), c.now, q.tccd, bank, 0, cols)
	if err != nil {
		return nil, fmt.Errorf("read row %d: %w", row, err)
	}
	if err := c.closeRow(bank, row, cols, q); err != nil {
		return nil, err
	}
	return data, nil
}

// openRow activates a row for a full-row read at timing q and returns the
// number of column bursts; the first is due at the controller's clock.
func (c *Controller) openRow(bank, row int, q quanta) (int, error) {
	if err := c.mod.Activate(c.now, bank, row); err != nil {
		return 0, fmt.Errorf("read row %d: %w", row, err)
	}
	c.now += q.trcd
	return c.mod.Geometry().Columns(), nil
}

// closeRow advances the clock past a row's cols bursts, each one tCCD after
// the one before, and precharges the bank.
func (c *Controller) closeRow(bank, row, cols int, q quanta) error {
	c.now += dram.PS(cols) * q.tccd
	if err := c.mod.Precharge(c.now, bank); err != nil {
		return fmt.Errorf("read row %d: %w", row, err)
	}
	c.now += q.trp
	return nil
}

// safeReadTRCDNS is a conservative activation latency above every tested
// module's requirement at any voltage (the worst failing module needs 24 ns
// at VPPmin). Data-comparison reads during RowHammer and retention tests use
// it so that activation-latency violations cannot masquerade as RowHammer or
// retention bit flips — the §4.1 "disabling sources of interference"
// discipline applied to timing.
const safeReadTRCDNS = 30

// ReadRowSafe reads a full row at the conservative safe activation latency,
// regardless of the currently programmed tRCD override, which stays
// programmed.
func (c *Controller) ReadRowSafe(bank, row int) ([]byte, error) {
	return c.readRow(bank, row, safeQuanta)
}

// CountRowSafe reads a full row as ReadRowSafe does and returns how many of
// its bits differ from fill: the compare_data step of Algs. 1 and 3, with
// no row image handed out. It issues the same commands and leaves the
// controller and the module at the same time as ReadRowSafe.
func (c *Controller) CountRowSafe(bank, row int, fill byte) (int, error) {
	q := safeQuanta
	cols, err := c.openRow(bank, row, q)
	if err != nil {
		return 0, err
	}
	n, err := c.mod.CountRange(c.now, q.tccd, bank, 0, cols, fill)
	if err != nil {
		return 0, fmt.Errorf("read row %d: %w", row, err)
	}
	if err := c.closeRow(bank, row, cols, q); err != nil {
		return 0, err
	}
	return n, nil
}

// SweepColumns runs the column loop of Alg. 2 over a row: for each column
// from 0, initialize_row at nominal timing (as InitializeRow does), then ACT
// at the programmed tRCD, one column burst and PRE once tRAS has passed
// since ACT, until a column reads back anything but fill. It returns that
// column, or -1 when every column read back clean.
//
//detlint:hotpath witness=TestAlg2ColumnStepAllocsFree
func (c *Controller) SweepColumns(bank, row int, fill byte) (int, error) {
	col, next, err := c.mod.ColumnSweep(c.now, dram.SweepTiming{
		InitRCD: nominalQuanta.trcd, InitRAS: nominalQuanta.tras, InitRP: nominalQuanta.trp,
		RCD: c.q.trcd, Rest: c.q.rest, RP: c.q.trp,
	}, bank, row, fill)
	c.now = next
	if err != nil {
		return -1, fmt.Errorf("sweep row %d: %w", row, err) //detlint:ignore hotalloc error path, never taken by a well-formed command stream
	}
	return col, nil
}

// Hammer performs count activate/precharge cycles of a single row
// (single-sided hammering).
func (c *Controller) Hammer(bank, row, count int) error {
	if count <= 0 {
		return nil
	}
	if err := c.mod.ActivateMany(c.now, bank, row, count); err != nil {
		return fmt.Errorf("hammer row %d: %w", row, err)
	}
	c.now = c.mod.Now()
	return nil
}

// HammerDoubleSided performs the paper's double-sided attack: the two
// aggressor rows are each activated count times in an alternating fashion
// (hammer count is defined per aggressor row, §4.2).
func (c *Controller) HammerDoubleSided(bank, aggLo, aggHi, count int) error {
	if count <= 0 {
		return nil
	}
	// The device folds exposure additively, so issuing the two aggressors'
	// activations as two bulk bursts is observably identical to strict
	// alternation while keeping the simulation O(1) in count.
	if err := c.Hammer(bank, aggLo, count); err != nil {
		return err
	}
	return c.Hammer(bank, aggHi, count)
}

// WaitMS idles the channel for the given simulated milliseconds (retention
// testing). No refresh commands are issued while waiting.
func (c *Controller) WaitMS(ms float64) error {
	if ms < 0 {
		return fmt.Errorf("%w: wait %.1fms", ErrTimingOutOfRange, ms)
	}
	c.now += dram.MSToPS(ms)
	return c.mod.Wait(c.now)
}

// Refresh issues one REF command (used only by defense ablations and
// mitigation studies, never by the characterization algorithms).
func (c *Controller) Refresh() error {
	if err := c.mod.Refresh(c.now); err != nil {
		return err
	}
	c.now += quantizePS(350) // tRFC for 8Gb-class devices, ~350ns
	return nil
}

// RefreshRow refreshes a single row (selective-refresh mitigation).
func (c *Controller) RefreshRow(bank, row int) error {
	if err := c.mod.RefreshRow(c.now, bank, row); err != nil {
		return err
	}
	c.now += quantizePS(c.timing.TRAS + c.timing.TRP)
	return nil
}

// HammerObserveVictims implements mapping.Prober: it initializes the
// candidate rows with a stripe pattern, single-sidedly hammers the aggressor,
// and reports which candidates flipped. Used by adjacency reverse
// engineering (§4.2 "Finding Physically Adjacent Rows").
func (c *Controller) HammerObserveVictims(aggressor, count int, candidates []int) ([]int, error) {
	const fill = 0xFF
	for _, r := range candidates {
		if r == aggressor {
			continue
		}
		if err := c.InitializeRow(0, r, fill); err != nil {
			return nil, err
		}
	}
	if err := c.InitializeRow(0, aggressor, 0x00); err != nil {
		return nil, err
	}
	if err := c.Hammer(0, aggressor, count); err != nil {
		return nil, err
	}
	var victims []int
	for _, r := range candidates {
		if r == aggressor {
			continue
		}
		flips, err := c.CountRowSafe(0, r, fill)
		if err != nil {
			return nil, err
		}
		if flips > 0 {
			victims = append(victims, r)
		}
	}
	return victims, nil
}
