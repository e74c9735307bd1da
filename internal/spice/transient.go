package spice

import (
	"errors"
	"fmt"
	"math"
)

// Transient integrates the Table 2 netlist (cell, bitline and sense
// amplifier) through time with backward Euler, solving the nonlinear MNA
// system by Newton-Raphson at each step.
//
// The engine exploits the bordered MNA structure: every grounded voltage
// source contributes an identity border row that pins its node, so those
// nodes are eliminated from the system up front and only the remaining
// unknowns are solved, which halves the netlist's system (12 -> 6 unknowns).
// Static stamps (resistors, capacitor conductances, the ground leak) are
// assembled once per step size, device constants once per run, the per-step
// right-hand side (capacitor companions, source levels) once per step, and
// each Newton iteration adds only the analytic MOSFET linearization from
// mosDev.stamp, in the fixed-slot kernel cellIter.
//
// NewTransient accepts no other circuit. The dense finite-difference engine
// this one replaced lives in the package's tests, as the oracle its
// waveforms are pinned to.
type Transient struct {
	ckt    *Circuit
	dt     float64 // current integration step (adaptive stepping varies it)
	baseDt float64 // the step the analysis was constructed with
	t      float64

	nv int       // voltage unknowns (nodes minus ground)
	v  []float64 // current node voltages, index node-1

	// newtIters accumulates Newton iterations across every solve since the
	// last Reset, including failed and later-rewound ones: the total
	// iteration work a run performed, reported via StepStats.NewtonIters.
	newtIters int
	// moved is the largest node-voltage change of the last completed Step,
	// measured while the step writes its solution back: the adaptive
	// stepper's quiescence test reads it instead of re-scanning v.
	moved float64

	red *reduced

	// ad holds the adaptive stepper's reusable scratch (snapshots, trial
	// vectors). Allocated on first adaptive use and kept across Reset, so a
	// reused Workspace performs no steady-state allocations per run.
	ad *adaptiveScratch
}

// Newton-iteration controls.
const (
	newtonTol      = 1e-6
	newtonMaxIters = 80
	newtonMaxDelta = 0.4 // volts per iteration (damping)
)

// nodeLeak keeps floating nodes defined during elimination.
const nodeLeak = 1e-12

// errNotCell rejects a circuit the engine is not written for.
var errNotCell = errors.New("spice: the transient engine solves only the Table 2 cell netlist")

// NewTransient prepares a transient analysis of the Table 2 netlist with the
// given time step in seconds. Node initial conditions come from
// Circuit.SetInitial (default 0). Any other circuit is an error.
func NewTransient(c *Circuit, dt float64) (*Transient, error) {
	nv := c.NumNodes() - 1
	r := &reduced{
		idx:     make([]int, nv),
		vdrv:    make([]float64, nv),
		weights: lagrange{h: [3]float64{math.NaN(), math.NaN(), math.NaN()}},
	}
	if !r.matchCell(c, nv) {
		return nil, errNotCell
	}
	r.devs = make([]mosDev, len(c.mosfets))
	ku := r.ku
	r.zStep = make([]float64, ku)
	r.a = make([]float64, ku*ku)
	r.z = make([]float64, ku)
	r.newt = make([]float64, ku)
	r.xPrev = make([]float64, ku)
	r.xPrev2 = make([]float64, ku)
	r.xPrev3 = make([]float64, ku)
	tr := &Transient{ckt: c, baseDt: dt, nv: nv, v: make([]float64, nv), red: r}
	tr.Reset()
	return tr, nil
}

// Time returns the current simulation time in seconds.
func (tr *Transient) Time() float64 { return tr.t }

// Reset rewinds the analysis to t=0 and re-reads the circuit's element
// values and initial conditions, reusing every workspace allocation. It is
// the re-stamp half of the Monte-Carlo workspace reuse: after mutating the
// circuit's R/C/MOS values and initial voltages in place (the topology must
// be unchanged), Reset makes the next Step sequence bit-identical to a
// freshly constructed Transient over the same circuit, which NewTransient
// primes through Reset too.
//
//detlint:hotpath witness=TestWorkspaceSimulateAllocs
func (tr *Transient) Reset() {
	tr.t = 0
	tr.dt = tr.baseDt
	tr.newtIters = 0
	for i := range tr.v {
		tr.v[i] = 0
	}
	for node, volts := range tr.ckt.initial {
		if node > 0 && node <= tr.nv {
			tr.v[node-1] = volts
		}
	}
	tr.red.restamp(tr.ckt, tr.dt, tr.v)
}

// V returns the voltage of a node at the current time.
func (tr *Transient) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return tr.v[node-1]
}

// setDt switches the integration step size. Capacitor companion
// conductances are C/dt, so the static system follows the step size (the
// cell reuses the system it built for that size earlier in the run). The
// Newton history survives intact: the adaptive predictor extrapolates
// through it at the real step spacings (see predict), so a step-size change
// costs no copy-previous initial guesses, which on the adaptive path, where
// dt changes on nearly every coarse transition, is worth about one Newton
// iteration per solve. Only the adaptive stepper changes the step size.
//
//detlint:hotpath witness=TestWorkspaceSimulateAllocs
func (tr *Transient) setDt(dt float64) {
	if dt == tr.dt {
		return
	}
	tr.dt = dt
	tr.red.stampStatics(tr.ckt, dt)
}

// engineState is a rewindable snapshot of the integration state: everything
// a Step reads besides the circuit itself. save/load let the adaptive
// stepper attempt a trial step and retract it on an error-estimate or
// Newton failure.
type engineState struct {
	t, dt                 float64
	steps                 int
	dtLast, dtLast2       float64   // predictor step spacings
	v                     []float64 // node voltages
	xPrev, xPrev2, xPrev3 []float64 // Newton history
}

// newState allocates a snapshot sized for this analysis.
func (tr *Transient) newState() *engineState {
	ku := tr.red.ku
	return &engineState{
		v:      make([]float64, tr.nv),
		xPrev:  make([]float64, ku),
		xPrev2: make([]float64, ku),
		xPrev3: make([]float64, ku),
	}
}

// save captures the current integration state into s.
func (tr *Transient) save(s *engineState) {
	r := tr.red
	s.t, s.dt = tr.t, tr.dt
	copy(s.v, tr.v)
	s.steps = r.steps
	s.dtLast, s.dtLast2 = r.dtLast, r.dtLast2
	copy(s.xPrev, r.xPrev)
	copy(s.xPrev2, r.xPrev2)
	copy(s.xPrev3, r.xPrev3)
}

// load restores a previously saved integration state, re-stamping if the
// step size differs.
func (tr *Transient) load(s *engineState) {
	r := tr.red
	tr.t = s.t
	tr.setDt(s.dt)
	copy(tr.v, s.v)
	r.steps = s.steps
	r.dtLast, r.dtLast2 = s.dtLast, s.dtLast2
	copy(r.xPrev, s.xPrev)
	copy(r.xPrev2, s.xPrev2)
	copy(r.xPrev3, s.xPrev3)
}

// Step advances the simulation by one backward-Euler step.
//
//detlint:hotpath witness=TestWorkspaceSimulateAllocs
func (tr *Transient) Step() error {
	r := tr.red
	tNext := tr.t + tr.dt

	r.loadStep(tNext, tr.v)
	r.predict(tr.dt)
	for iter := 0; iter < newtonMaxIters; iter++ {
		// The cell kernel assembles and solves in locals; when a pivot
		// guard trips it has written nothing, so redoing the iteration
		// through solveGeneric reproduces the identical elimination prefix
		// and resolves the pivot by the partial-pivot solve.
		maxDelta, ok := r.cellIter()
		if !ok {
			var err error
			if maxDelta, err = r.solveGeneric(); err != nil {
				return fmt.Errorf("t=%.3gs: %w", tNext, err) //detlint:ignore hotalloc error path, never taken by a converging run
			}
		}
		if maxDelta < newtonTol {
			if r.solveHook != nil {
				r.solveHook()
			}
			tr.newtIters += iter + 1
			tr.moved = r.writeBack(tr.v)
			// The iterate becomes the newest history entry and the oldest
			// entry's buffer the next iterate, which predict overwrites.
			r.xPrev, r.xPrev2, r.xPrev3, r.newt = r.newt, r.xPrev, r.xPrev2, r.xPrev3
			r.steps++
			r.dtLast, r.dtLast2 = tr.dt, r.dtLast
			tr.t = tNext
			return nil
		}
	}
	tr.newtIters += newtonMaxIters
	return fmt.Errorf("t=%.3gs: %w", tNext, ErrNoConverge) //detlint:ignore hotalloc error path, never taken by a converging run
}

// ---------------------------------------------------------------------------
// The reduced system of the Table 2 netlist.

// mosPlan caches one MOSFET's terminal routing into the reduced system,
// resolved once at construction: per terminal the reduced index (rd/rg/rs,
// -1 when the terminal is driven or ground) and the node-1 index into vdrv
// for driven terminals (dd/dg/ds, -1 otherwise; a ground terminal has both
// at -1 and reads 0 V). The fallback stamp then runs without node-id maps
// or closures.
type mosPlan struct {
	rd, rg, rs int
	dd, dg, ds int
}

// cellSource is one of the netlist's sources: its node-1 index into vdrv
// and its waveform, evaluated directly rather than through Waveform.
type cellSource struct {
	node int
	wave *PWL
}

// cellRows is the elimination of the cell matrix's two device-free rows,
// 0 (cellC) and 4 (blbc), into rows 1 and 5. No device stamps rows 0 and 4
// or the entries a10 and a54 below their pivots, so the pivot guards, the
// factors and the factors' products with a01 and a45 depend only on the
// step size (stampStatics sets them) and the products with z0 and z4
// (reduced.fz0, fz4) only on the step (loadStep sets them). cellIter
// subtracts them exactly where the elimination used to compute them: each
// value is the same product of the same operands, only computed earlier.
type cellRows struct {
	ok        bool    // neither row's pivot guard trips
	f10, fa01 float64 // a10*(1/a00) and f10*a01
	f54, fa45 float64 // a54*(1/a44) and f54*a45
}

// cellStatics is the cell's static system at one step size: the matrix,
// the capacitor conductances and the device-free rows.
type cellStatics struct {
	dt   float64
	g    [36]float64
	gCap [5]float64
	rows cellRows
}

// maxCellSizes bounds the step sizes the cell keeps static systems for. An
// adaptive run uses the base step and its power-of-two multiples up to
// maxCoarsePS, seven sizes on the 25 ps grid.
const maxCellSizes = 8

// lagrange caches the quadratic predictor's weights for the spacing triple
// (dt, dtLast, dtLast2) they were computed at: base stepping and runs of
// trusted coarse steps repeat one triple for many solves.
type lagrange struct {
	h [3]float64 // dt, dtLast, dtLast2; NaN until the first computation
	l [3]float64 // weights of xPrev, xPrev2, xPrev3
}

// reduced is the engine's state over the reduced system, whose indices
// cover only the undriven, non-ground nodes.
type reduced struct {
	ku    int   // unknown (undriven) node count
	idx   []int // node-1 -> reduced index, or -1 for driven nodes
	nodes []int // reduced index -> node id

	mosPlans []mosPlan // per-MOSFET terminal routing, fixed by the topology
	devs     []mosDev  // per-MOSFET evaluation constants, refreshed by restamp
	// The wl, san and sap sources, and the node-1 indices of the five
	// capacitors, on reduced rows 0, 2, 3, 4, 5 (see matchCell).
	cellSrc  [3]cellSource
	cellCapV [5]int

	// The static systems per step size, for the current run: a switch back
	// to a size the run has used reuses its system instead of restamping
	// it. gStatic (ku*ku: resistors, capacitor conductances, leak), gCap
	// (each capacitor's companion conductance C/dt, in circuit order) and
	// rows point into the current size's entry; restamp empties the list.
	sizes    [maxCellSizes]cellStatics
	nSizes   int
	gStatic  []float64
	gCap     []float64
	rows     *cellRows
	fz0, fz4 float64 // rows.f10*z0 and rows.f54*z4, per step (loadStep)

	vdrv   []float64 // node-1 -> driven voltage at the end of the step
	zStep  []float64 // per-step RHS (capacitor companions)
	a      []float64 // fallback Newton workspace: ku*ku matrix
	z      []float64 // fallback Newton workspace: RHS / solution
	newt   []float64 // Newton iterate
	xPrev  []float64 // converged reduced solution of the previous step
	xPrev2 []float64 // solution two steps back (Newton predictor)
	xPrev3 []float64 // solution three steps back (adaptive predictor)
	steps  int       // completed steps (predictors need two or three)

	dtLast  float64 // step size that produced xPrev
	dtLast2 float64 // step size that produced xPrev2
	// quadratic selects the adaptive stepper's three-point predictor; the
	// fixed grid keeps the two-point 2*x-y form. Set by newAdaptiveStepper,
	// cleared by every restamp (construction and Reset).
	quadratic bool
	weights   lagrange

	// solveHook, when set, runs after every converged Newton solve, before
	// the step is written back: a test seam for checking the values the
	// solve consumed. Nil outside tests.
	solveHook func()
}

// restamp (re)builds every stamp that never changes across steps, reusing
// the workspace allocations, folds each device's evaluation constants, and
// primes the Newton state from the node voltages v. It runs on every Reset,
// construction included, with identical assembly order each time so a
// reused engine is bit-identical to a fresh one.
func (r *reduced) restamp(c *Circuit, dt float64, v []float64) {
	r.nSizes = 0
	r.stampStatics(c, dt)
	for i := range c.mosfets {
		r.devs[i] = c.mosfets[i].params.dev()
	}
	r.steps = 0
	r.dtLast, r.dtLast2 = dt, dt
	r.quadratic = false
	for i, n := range r.nodes {
		r.xPrev[i] = v[n-1]
		r.xPrev2[i] = 0
		r.xPrev3[i] = 0
	}
}

// stampStatics rebuilds the stamps that depend only on element values and
// the step size — not on the Newton history — in fixed assembly order, into
// a new per-size entry, or reuses the entry of a size it has already built
// since the last restamp.
func (r *reduced) stampStatics(c *Circuit, dt float64) {
	if r.useSize(dt) {
		return
	}
	ku := r.ku
	for i := range r.gStatic {
		r.gStatic[i] = 0
	}
	for i := 0; i < ku; i++ {
		r.gStatic[i*ku+i] += nodeLeak
	}
	for _, res := range c.resistors {
		r.stampStatic(res.a, res.b, 1/res.ohms)
	}
	// Capacitor backward-Euler companions: the conductance C/dt is static
	// for a fixed step; only the history current moves to the per-step RHS,
	// which reuses the conductance kept here.
	for i, cap := range c.caps {
		r.gCap[i] = cap.farads / dt
		r.stampStatic(cap.a, cap.b, r.gCap[i])
	}
	r.rows.eliminate((*[36]float64)(r.gStatic))
}

// useSize points the cell's static system at the entry for step size dt.
// It reports whether the entry was already built; if not, it claims a new
// entry (the last one once all are taken) for stampStatics to build.
func (r *reduced) useSize(dt float64) (built bool) {
	k := 0
	for ; k < r.nSizes; k++ {
		if r.sizes[k].dt == dt {
			built = true
			break
		}
	}
	if !built {
		if r.nSizes < len(r.sizes) {
			r.nSizes++
		}
		k = r.nSizes - 1
		r.sizes[k].dt = dt
	}
	e := &r.sizes[k]
	r.gStatic, r.gCap, r.rows = e.g[:], e.gCap[:], &e.rows
	return built
}

// eliminate sets the step-size part of the device-free rows from the static
// matrix g: the pivot guards and factors cellIter's elimination of rows 0
// and 4 would compute, and each factor's product with the row's
// off-diagonal entry.
func (c *cellRows) eliminate(g *[36]float64) {
	a00, a01, a10 := g[0], g[1], g[6]
	a44, a45, a54 := g[28], g[29], g[34]
	c.ok = !(abs(a10) > abs(a00) || abs(a00) < 1e-18) &&
		!(abs(a54) > abs(a44) || abs(a44) < 1e-18)
	c.f10 = a10 * (1 / a00)
	c.fa01 = c.f10 * a01
	c.f54 = a54 * (1 / a44)
	c.fa45 = c.f54 * a45
}

// stampStatic adds conductance g between nodes a and b into the static
// matrix. matchCell admits no static element on a driven node, so a plate
// that is not an unknown is ground and contributes nothing.
func (r *reduced) stampStatic(a, b int, g float64) {
	ra, rb := r.reducedOf(a), r.reducedOf(b)
	if ra >= 0 {
		r.gStatic[ra*r.ku+ra] += g
	}
	if rb >= 0 {
		r.gStatic[rb*r.ku+rb] += g
	}
	if ra >= 0 && rb >= 0 {
		r.gStatic[ra*r.ku+rb] -= g
		r.gStatic[rb*r.ku+ra] -= g
	}
}

// reducedOf maps a node id to its reduced index; ground and driven nodes
// return -1.
func (r *reduced) reducedOf(node int) int {
	if node == Ground {
		return -1
	}
	return r.idx[node-1]
}

// matchCell reports whether the circuit is the Table 2 netlist cellIter is
// written for, and lays out its reduced system. The three sources, in order
// wl, san, sap, are piecewise-linear with their negative terminal on ground
// and their positive terminals on three distinct nodes, which leave the
// system; the other nodes take reduced indices in node order, and must be
// cellC 0, cellN 1, blc 2, bls 3, blbc 4, blbs 5. The access transistor runs
// blc (drain), wl (gate), cellN (source); SAN1 and SAP1 run bls, blbs, rail
// and SAN2 and SAP2 the mirror image blbs, bls, rail, in that device order;
// five capacitors ground cellC, blc, bls, blbc and blbs, in that order. A
// resistor may not touch a driven node, and may join two unknowns only
// where cellPattern6 has an entry. Every stamp then stays within the
// pattern, so the entries outside it are exact zeros through every Newton
// iteration.
func (r *reduced) matchCell(c *Circuit, nv int) bool {
	if len(c.sources) != len(r.cellSrc) {
		return false
	}
	driven := make([]bool, nv)
	for i, s := range c.sources {
		w, ok := s.wave.(*PWL)
		if !ok || s.pos < 1 || s.pos > nv || s.neg != Ground || driven[s.pos-1] {
			return false
		}
		driven[s.pos-1] = true
		r.cellSrc[i] = cellSource{node: s.pos - 1, wave: w}
	}
	for n := 1; n <= nv; n++ {
		r.idx[n-1] = -1
		if !driven[n-1] {
			r.idx[n-1] = len(r.nodes)
			r.nodes = append(r.nodes, n)
		}
	}
	r.ku = len(r.nodes)
	if r.ku != 6 || len(c.mosfets) != 5 || len(c.caps) != len(r.cellCapV) {
		return false
	}
	drv := func(node int) int {
		if node != Ground && driven[node-1] {
			return node - 1
		}
		return -1
	}
	for _, m := range c.mosfets {
		r.mosPlans = append(r.mosPlans, mosPlan{
			rd: r.reducedOf(m.d), rg: r.reducedOf(m.g), rs: r.reducedOf(m.s),
			dd: drv(m.d), dg: drv(m.g), ds: drv(m.s),
		})
	}
	wl, san, sap := r.cellSrc[0].node, r.cellSrc[1].node, r.cellSrc[2].node
	if [5]mosPlan(r.mosPlans) != [5]mosPlan{
		{rd: 2, rg: -1, rs: 1, dd: -1, dg: wl, ds: -1},
		{rd: 3, rg: 5, rs: -1, dd: -1, dg: -1, ds: san},
		{rd: 5, rg: 3, rs: -1, dd: -1, dg: -1, ds: san},
		{rd: 3, rg: 5, rs: -1, dd: -1, dg: -1, ds: sap},
		{rd: 5, rg: 3, rs: -1, dd: -1, dg: -1, ds: sap},
	} {
		return false
	}
	for i, row := range [5]int{0, 2, 3, 4, 5} {
		if cp := c.caps[i]; r.reducedOf(cp.a) != row || cp.b != Ground {
			return false
		}
		r.cellCapV[i] = c.caps[i].a - 1
	}
	for _, res := range c.resistors {
		if drv(res.a) >= 0 || drv(res.b) >= 0 {
			return false
		}
		ra, rb := r.reducedOf(res.a), r.reducedOf(res.b)
		if ra >= 0 && rb >= 0 && cellPattern6[ra]&(1<<rb) == 0 {
			return false
		}
	}
	return true
}

// stampMOSAnalytic adds one MOSFET's analytic linearization to the Newton
// system: only the handful of entries the device touches change per
// iteration. The plan resolves every terminal's routing up front, so the
// stamp is straight-line index arithmetic; the adds run in the same order
// (drain row: d, g, s; then source row: d, g, s) with the same float
// operations as the routing-at-stamp-time form it replaced. Only
// solveGeneric, the fallback of a tripped pivot guard, stamps this way.
func (r *reduced) stampMOSAnalytic(dev *mosDev, pl mosPlan) {
	var vd, vg, vs float64
	if pl.rd >= 0 {
		vd = r.newt[pl.rd]
	} else if pl.dd >= 0 {
		vd = r.vdrv[pl.dd]
	}
	if pl.rg >= 0 {
		vg = r.newt[pl.rg]
	} else if pl.dg >= 0 {
		vg = r.vdrv[pl.dg]
	}
	if pl.rs >= 0 {
		vs = r.newt[pl.rs]
	} else if pl.ds >= 0 {
		vs = r.vdrv[pl.ds]
	}
	id, gdd, gdg, gds := dev.stamp(vd, vg, vs)
	ieq := id - gdd*vd - gdg*vg - gds*vs

	ku := r.ku
	if rd := pl.rd; rd >= 0 {
		row := rd * ku
		r.a[row+rd] += gdd
		if pl.rg >= 0 {
			r.a[row+pl.rg] += gdg
		} else if pl.dg >= 0 {
			r.z[rd] -= gdg * r.vdrv[pl.dg]
		}
		if pl.rs >= 0 {
			r.a[row+pl.rs] += gds
		} else if pl.ds >= 0 {
			r.z[rd] -= gds * r.vdrv[pl.ds]
		}
		r.z[rd] -= ieq
	}
	if rs := pl.rs; rs >= 0 {
		row := rs * ku
		if pl.rd >= 0 {
			r.a[row+pl.rd] += -gdd
		} else if pl.dd >= 0 {
			r.z[rs] -= -gdd * r.vdrv[pl.dd]
		}
		if pl.rg >= 0 {
			r.a[row+pl.rg] += -gdg
		} else if pl.dg >= 0 {
			r.z[rs] -= -gdg * r.vdrv[pl.dg]
		}
		r.a[row+rs] += -gds
		r.z[rs] += ieq
	}
}

// solveGeneric performs one copy-stamp-solve Newton iteration on the heap
// workspace: the full static restore, the per-device stamps, the
// partial-pivot solve and the damped update, returning the convergence
// norm. It is the redo path when cellIter declines an iteration.
func (r *reduced) solveGeneric() (maxDelta float64, err error) {
	copy(r.a, r.gStatic)
	copy(r.z, r.zStep)
	for mi := range r.devs {
		r.stampMOSAnalytic(&r.devs[mi], r.mosPlans[mi])
	}
	if err := solve6(r.a, r.z); err != nil {
		return 0, err
	}
	return update6((*[6]float64)(r.newt), (*[6]float64)(r.z)), nil
}

// update6 applies the damped Newton update from the solution x to the
// iterate nt and returns the convergence norm, the largest undamped change.
// Both iteration forms end with it.
func update6(nt, x *[6]float64) (maxDelta float64) {
	for i := range x {
		maxDelta = dampedMove(&nt[i], x[i], maxDelta)
	}
	return maxDelta
}

// dampedMove moves *x toward target by at most newtonMaxDelta, which keeps
// the latch transition stable (every reduced unknown is a node voltage),
// and returns maxDelta raised to the undamped change if that is larger.
func dampedMove(x *float64, target, maxDelta float64) float64 {
	d := target - *x
	ad := abs(d)
	if ad > maxDelta {
		maxDelta = ad
	}
	if ad > newtonMaxDelta {
		if d > 0 {
			d = newtonMaxDelta
		} else {
			d = -newtonMaxDelta
		}
	}
	*x += d
	return maxDelta
}

// predict writes the Newton initial guess for a step of size dt into
// r.newt. The guess only changes where the iteration starts, not the fixed
// point it converges to.
//
// The fixed grid extrapolates linearly with the literal 2*x-y form, which
// the fixed-grid goldens pin (x+1*(x-y) differs from it by an ulp); its
// step never changes, so that is the only form it reaches. The adaptive
// stepper, once three solutions exist, extrapolates the Lagrange quadratic
// through them at their real spacings h1 = dtLast and h2 = dtLast2: the
// linear guess misses a smooth trajectory by its curvature (1e-6 to 1e-4 V
// on this netlist), so nearly every solve spent a second Newton iteration
// only to confirm convergence, and the quadratic guess removes most of
// those. With two solutions it extrapolates the line through them, its
// slope rescaled by dt/dtLast when the step changed.
func (r *reduced) predict(dt float64) {
	switch {
	case r.quadratic && r.steps >= 3:
		l1, l2, l3 := r.lagrangeWeights(dt)
		nt := r.newt
		x1, x2, x3 := r.xPrev[:len(nt)], r.xPrev2[:len(nt)], r.xPrev3[:len(nt)]
		for i := range nt {
			// Explicit rounding keeps each product out of a fused
			// multiply-add, so the guess is the same on every architecture.
			nt[i] = float64(l1*x1[i]) + float64(l2*x2[i]) + float64(l3*x3[i])
		}
	case r.steps >= 2 && dt == r.dtLast:
		for i := range r.newt {
			r.newt[i] = 2*r.xPrev[i] - r.xPrev2[i]
		}
	case r.steps >= 2:
		ratio := dt / r.dtLast
		for i := range r.newt {
			r.newt[i] = r.xPrev[i] + ratio*(r.xPrev[i]-r.xPrev2[i])
		}
	default:
		copy(r.newt, r.xPrev)
	}
}

// lagrangeWeights returns the quadratic predictor's weights for a step of
// size dt after steps of dtLast and dtLast2, computing them only when that
// spacing triple differs from the one the cached weights belong to.
func (r *reduced) lagrangeWeights(dt float64) (l1, l2, l3 float64) {
	w := &r.weights
	if h := [3]float64{dt, r.dtLast, r.dtLast2}; h != w.h {
		h0, h1, h2 := h[0], h[1], h[2]
		s01, s012 := h0+h1, h0+h1+h2
		w.l[0] = s01 * s012 / (h1 * (h1 + h2))
		w.l[1] = -h0 * s012 / (h1 * h2)
		w.l[2] = h0 * s01 / ((h1 + h2) * h2)
		w.h = h
	}
	return w.l[0], w.l[1], w.l[2]
}

// loadStep is the per-step pass of a step ending at tNext: the source levels
// and the capacitor history currents from the node voltages v, fixed for the
// whole Newton loop. It evaluates the three sources directly, reads each
// capacitor's history at its fixed row, and forms the right-hand-side
// products of the device-free rows.
func (r *reduced) loadStep(tNext float64, v []float64) {
	for i := range r.cellSrc {
		// Past its last breakpoint a waveform holds its last value, read
		// here without calling At: every source of the netlist has settled
		// by the end of the sense-amplifier ramp, and most steps of an
		// activation come after it.
		s := &r.cellSrc[i]
		if w, last := s.wave, len(s.wave.Times)-1; last >= 0 && tNext > w.Times[last] {
			r.vdrv[s.node] = w.Values[last]
		} else {
			r.vdrv[s.node] = w.At(tNext)
		}
	}
	// Each grounded capacitor's companion current g*(v - 0) == g*v, added
	// to a zeroed row as the assembly always has: 0 + x keeps no negative
	// zero, so the row's bits are those of the sum.
	for i := range r.zStep {
		r.zStep[i] = 0
	}
	z, g, n := (*[6]float64)(r.zStep), (*[5]float64)(r.gCap), &r.cellCapV
	z[0] += g[0] * v[n[0]]
	z[2] += g[1] * v[n[1]]
	z[3] += g[2] * v[n[2]]
	z[4] += g[3] * v[n[3]]
	z[5] += g[4] * v[n[4]]
	r.fz0 = r.rows.f10 * z[0]
	r.fz4 = r.rows.f54 * z[4]
}

// writeBack stores a converged step into the node voltages v, the six
// unknowns from the iterate and the three driven nodes from their source
// levels, and returns the largest change it made to any node.
func (r *reduced) writeBack(v []float64) (moved float64) {
	nt := (*[6]float64)(r.newt)
	for i, n := range (*[6]int)(r.nodes) {
		moved = setMoved(v, n-1, nt[i], moved)
	}
	for i := range r.cellSrc {
		k := r.cellSrc[i].node
		moved = setMoved(v, k, r.vdrv[k], moved)
	}
	return moved
}

// setMoved stores x into v[k] and returns moved raised to |x - v[k]| if
// that is larger.
func setMoved(v []float64, k int, x, moved float64) float64 {
	if d := abs(x - v[k]); d > moved {
		moved = d
	}
	v[k] = x
	return moved
}
