package spice

import (
	"errors"
	"fmt"
	"math"
)

// Ground is the reference node; its voltage is fixed at zero.
const Ground = 0

// Circuit is a netlist under construction. The zero value is unusable; use
// NewCircuit.
type Circuit struct {
	nodeCount int
	nodeNames map[string]int
	resistors []resistor
	caps      []capacitor
	sources   []vsource
	mosfets   []mosfet
	initial   map[int]float64
}

type resistor struct {
	a, b int
	ohms float64
}

type capacitor struct {
	a, b   int
	farads float64
}

type vsource struct {
	pos, neg int
	wave     Waveform
}

type mosfet struct {
	d, g, s int
	params  MOSParams
}

// Waveform is a time-dependent source value in volts.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// PWL is a piecewise-linear waveform defined by (time, value) breakpoints in
// ascending time order; values are held outside the breakpoint range.
type PWL struct {
	Times  []float64
	Values []float64
}

// At implements Waveform.
func (p PWL) At(t float64) float64 {
	n := len(p.Times)
	if n == 0 {
		return 0
	}
	if t <= p.Times[0] {
		return p.Values[0]
	}
	if t >= p.Times[n-1] {
		return p.Values[n-1]
	}
	for i := 1; i < n; i++ {
		if t <= p.Times[i] {
			f := (t - p.Times[i-1]) / (p.Times[i] - p.Times[i-1])
			return p.Values[i-1] + f*(p.Values[i]-p.Values[i-1])
		}
	}
	return p.Values[n-1]
}

// NewCircuit returns an empty netlist.
func NewCircuit() *Circuit {
	return &Circuit{
		nodeCount: 1, // ground
		nodeNames: map[string]int{"gnd": Ground, "0": Ground},
		initial:   map[int]float64{},
	}
}

// Node returns the node id for a name, allocating it on first use.
func (c *Circuit) Node(name string) int {
	if id, ok := c.nodeNames[name]; ok {
		return id
	}
	id := c.nodeCount
	c.nodeCount++
	c.nodeNames[name] = id
	return id
}

// NumNodes returns the number of nodes including ground.
func (c *Circuit) NumNodes() int { return c.nodeCount }

// R adds a resistor between nodes a and b.
func (c *Circuit) R(a, b int, ohms float64) {
	c.resistors = append(c.resistors, resistor{a, b, ohms})
}

// C adds a capacitor between nodes a and b.
func (c *Circuit) C(a, b int, farads float64) {
	c.caps = append(c.caps, capacitor{a, b, farads})
}

// V adds a voltage source from pos to neg with the given waveform and
// returns its source index.
func (c *Circuit) V(pos, neg int, w Waveform) int {
	c.sources = append(c.sources, vsource{pos, neg, w})
	return len(c.sources) - 1
}

// MOS adds a MOSFET with the given terminals and parameters.
func (c *Circuit) MOS(drain, gate, source int, p MOSParams) {
	c.mosfets = append(c.mosfets, mosfet{drain, gate, source, p})
}

// SetInitial sets a node's initial voltage for transient analysis.
func (c *Circuit) SetInitial(node int, volts float64) {
	if node != Ground {
		c.initial[node] = volts
	}
}

// ErrSingular is returned when the MNA system cannot be solved.
var ErrSingular = errors.New("spice: singular MNA matrix")

// ErrNoConverge is returned when Newton iteration fails to converge.
var ErrNoConverge = errors.New("spice: Newton iteration did not converge")

// solve6 is the partial-pivot Gaussian elimination of the reduced cell
// system's six unknowns, in place: a is the 6x6 matrix in row-major order, b
// the right-hand side. Its fixed-size array views and constant loop bounds
// let the compiler drop every bounds check and unroll the inner updates.
func solve6(as []float64, bs []float64) error {
	return solve6From((*[36]float64)(as), (*[6]float64)(bs), 0)
}

// solve6From runs the generic partial-pivot elimination starting at the
// given column, assuming columns before it are already eliminated. It is
// both the whole generic n=6 solve (col0 = 0) and the bit-exact
// continuation the structural elimination's oracle (solve6Cell in
// solve6_test.go) falls back to when a pivot search leaves the diagonal.
func solve6From(a *[36]float64, b *[6]float64, col0 int) error {
	const n = 6
	for col := col0; col < n; col++ {
		pivot := col
		max := abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r*n+col]); v > max {
				pivot, max = r, v
			}
		}
		if max < 1e-18 {
			return fmt.Errorf("%w (column %d)", ErrSingular, col) //detlint:ignore hotalloc error path, never taken by a solvable system
		}
		if pivot != col {
			for k := col; k < n; k++ {
				a[col*n+k], a[pivot*n+k] = a[pivot*n+k], a[col*n+k]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r*n+k] * b[k]
		}
		b[r] = sum / a[r*n+r]
	}
	return nil
}

// cellPattern6 is the row-wise nonzero mask (bit c = column c) of the
// reduced DRAM-cell Newton matrix in reduced-index order cellC, cellN, blc,
// bls, blbc, blbs: a chain cellC–cellN–blc–bls plus the isolated half
// blbc–blbs, coupled only through the sense-amp gate terms bls↔blbs. The
// pattern has two load-bearing properties, both verified by
// TestSolve6CellMatchesGeneric: elimination in natural order produces no
// fill-in, and each column has exactly one structurally nonzero entry below
// the diagonal.
var cellPattern6 = [6]uint8{
	0b000011, // cellC: diag, cellN
	0b000111, // cellN: cellC, diag, blc
	0b001110, // blc:   cellN, diag, bls
	0b101100, // bls:   blc, diag, blbs (gate)
	0b110000, // blbc:  diag, blbs
	0b111000, // blbs:  bls (gate), blbc, diag
}

// abs is math.Abs: the intrinsified bit-clear compiles branchless, which
// matters in the pivot guards and convergence checks it saturates. (It maps
// -0 to +0 where the branching form would keep -0; every caller only
// compares the result, and -0 == +0, so behavior is identical.)
func abs(x float64) float64 {
	return math.Abs(x)
}

// cellIter performs one complete Newton iteration of the Table 2 netlist
// (see matchCell) with every matrix entry in a fixed slot: the entries of
// cellPattern6 load from the per-step-size static matrix into locals, the
// five devices stamp into their slots in circuit order through mosDev.stamp,
// and the structural elimination and back-substitution run on the locals,
// handing the solution to update6, as solveGeneric does. The device-free
// rows 0 and 4 arrive already eliminated as far as the step size and the
// step allow (r.rows), so the division chain starts at row 1. The float
// operations are exactly those of solveGeneric, in the same order per
// entry, omitting only operations on exact structural zeros; solve6Cell in
// solve6_test.go is the elimination's oracle against the partial-pivot
// solve. When a pivot guard trips it returns ok = false WITHOUT writing
// anything, so the caller redoes the iteration through solveGeneric from
// the same inputs, which reproduces the identical elimination prefix and
// handles the pivot by partial pivoting.
//
//detlint:hotpath witness=TestWorkspaceSimulateAllocs
func (r *reduced) cellIter() (maxDelta float64, ok bool) {
	rows := r.rows
	if !rows.ok {
		return 0, false
	}
	g := (*[36]float64)(r.gStatic)
	z := (*[6]float64)(r.zStep)
	nt := (*[6]float64)(r.newt)
	dev := (*[5]mosDev)(r.devs)
	vwl, vsan, vsap := r.vdrv[r.cellSrc[0].node], r.vdrv[r.cellSrc[1].node], r.vdrv[r.cellSrc[2].node]

	// aRC is the entry at row R, column C, in reduced indices cellC 0,
	// cellN 1, blc 2, bls 3, blbc 4, blbs 5.
	a00, a01 := g[0], g[1]
	a11, a12 := g[7], g[8]
	a21, a22, a23 := g[13], g[14], g[15]
	a32, a33, a35 := g[20], g[21], g[23]
	a44, a45 := g[28], g[29]
	a53, a55 := g[33], g[35]
	z0, z1, z2, z3, z4, z5 := z[0], z[1], z[2], z[3], z[4], z[5]
	x1, x2, x3, x5 := nt[1], nt[2], nt[3], nt[5]

	// Access transistor: drain blc, gate wl, source cellN.
	id, gdd, gdg, gds := dev[0].stamp(x2, vwl, x1)
	ieq := id - gdd*x2 - gdg*vwl - gds*x1
	a22 += gdd
	z2 -= gdg * vwl
	a21 += gds
	z2 -= ieq
	a12 += -gdd
	z1 -= -gdg * vwl
	a11 += -gds
	z1 += ieq
	// SAN1: drain bls, gate blbs, source san.
	id, gdd, gdg, gds = dev[1].stamp(x3, x5, vsan)
	ieq = id - gdd*x3 - gdg*x5 - gds*vsan
	a33 += gdd
	a35 += gdg
	z3 -= gds * vsan
	z3 -= ieq
	// SAN2: drain blbs, gate bls, source san.
	id, gdd, gdg, gds = dev[2].stamp(x5, x3, vsan)
	ieq = id - gdd*x5 - gdg*x3 - gds*vsan
	a55 += gdd
	a53 += gdg
	z5 -= gds * vsan
	z5 -= ieq
	// SAP1: drain bls, gate blbs, source sap.
	id, gdd, gdg, gds = dev[3].stamp(x3, x5, vsap)
	ieq = id - gdd*x3 - gdg*x5 - gds*vsap
	a33 += gdd
	a35 += gdg
	z3 -= gds * vsap
	z3 -= ieq
	// SAP2: drain blbs, gate bls, source sap.
	id, gdd, gdg, gds = dev[4].stamp(x5, x3, vsap)
	ieq = id - gdd*x5 - gdg*x3 - gds*vsap
	a55 += gdd
	a53 += gdg
	z5 -= gds * vsap
	z5 -= ieq

	// Elimination in natural order: one subdiagonal entry per column.
	if rows.f10 != 0 {
		a11 -= rows.fa01
		z1 -= r.fz0
	}
	p := abs(a11)
	if abs(a21) > p || p < 1e-18 {
		return 0, false
	}
	if f := a21 * (1 / a11); f != 0 {
		a22 -= f * a12
		z2 -= f * z1
	}
	p = abs(a22)
	if abs(a32) > p || p < 1e-18 {
		return 0, false
	}
	if f := a32 * (1 / a22); f != 0 {
		a33 -= f * a23
		z3 -= f * z2
	}
	// Column 3's subdiagonal is the sense-amp gate coupling (5,3).
	p = abs(a33)
	if abs(a53) > p || p < 1e-18 {
		return 0, false
	}
	if f := a53 * (1 / a33); f != 0 {
		a55 -= f * a35
		z5 -= f * z3
	}
	if rows.f54 != 0 {
		a55 -= rows.fa45
		z5 -= r.fz4
	}
	if abs(a55) < 1e-18 {
		return 0, false
	}

	var x [6]float64
	x[5] = z5 / a55
	x[4] = (z4 - a45*x[5]) / a44
	x[3] = (z3 - a35*x[5]) / a33
	x[2] = (z2 - a23*x[3]) / a22
	x[1] = (z1 - a12*x[2]) / a11
	x[0] = (z0 - a01*x[1]) / a00
	return update6(nt, &x), true
}
