package spice

import "fmt"

// denseTransient is the dense reference engine: the oracle the production
// engine's waveforms are pinned to (TestGoldenIncrementalMatchesReference,
// TestAdaptiveMatchesReference), and the integrator of the generic-circuit
// tests. It shares no assembly or solve code with the production engine: it
// re-stamps the full MNA system (nodes + source currents) with
// finite-difference MOSFET Jacobians on every Newton iteration, so it takes
// any netlist of the package's elements, a floating source included (two
// sources on one node make its matrix singular).
type denseTransient struct {
	ckt   *Circuit
	dt, t float64
	nv    int // voltage unknowns (nodes minus ground)
	dim   int // nv + number of voltage sources

	v    []float64 // node voltages, index node-1
	x    []float64 // full solution vector (voltages + source currents)
	a    []float64 // scratch matrix
	z    []float64 // scratch RHS
	newt []float64 // scratch iterate
}

// newDenseTransient prepares a dense analysis with the given time step in
// seconds; node initial conditions come from Circuit.SetInitial.
func newDenseTransient(c *Circuit, dt float64) *denseTransient {
	nv := c.NumNodes() - 1
	dim := nv + len(c.sources)
	tr := &denseTransient{
		ckt: c, dt: dt, nv: nv, dim: dim,
		v:    make([]float64, nv),
		x:    make([]float64, dim),
		a:    make([]float64, dim*dim),
		z:    make([]float64, dim),
		newt: make([]float64, dim),
	}
	for node, volts := range c.initial {
		if node > 0 && node <= nv {
			tr.v[node-1] = volts
			tr.x[node-1] = volts
		}
	}
	return tr
}

// V returns the voltage of a node at the current time.
func (tr *denseTransient) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return tr.v[node-1]
}

// run steps until the given time.
func (tr *denseTransient) run(until float64) error {
	for tr.t < until-tr.dt/2 {
		if err := tr.stepDense(); err != nil {
			return err
		}
	}
	return nil
}

// stepDense advances one step by re-stamping and solving the full MNA
// system on every Newton iteration.
func (tr *denseTransient) stepDense() error {
	tNext := tr.t + tr.dt
	copy(tr.newt, tr.x) // Newton initial guess: previous solution

	for iter := 0; iter < newtonMaxIters; iter++ {
		tr.assembleDense(tNext)
		if err := solveDense(tr.a, tr.z, tr.dim); err != nil {
			return fmt.Errorf("t=%.3gs: %w", tNext, err)
		}
		// tr.z now holds the solution.
		maxDelta := 0.0
		for i := 0; i < tr.dim; i++ {
			d := tr.z[i] - tr.newt[i]
			if abs(d) > maxDelta {
				maxDelta = abs(d)
			}
			// Damp voltage unknowns to keep the latch transition stable.
			if i < tr.nv && abs(d) > newtonMaxDelta {
				if d > 0 {
					d = newtonMaxDelta
				} else {
					d = -newtonMaxDelta
				}
			}
			tr.newt[i] += d
		}
		if maxDelta < newtonTol {
			copy(tr.x, tr.newt)
			copy(tr.v, tr.newt[:tr.nv])
			tr.t = tNext
			return nil
		}
	}
	return fmt.Errorf("t=%.3gs: %w", tNext, ErrNoConverge)
}

// assembleDense builds the full MNA system linearized around the current
// Newton iterate for the backward-Euler step ending at time t.
func (tr *denseTransient) assembleDense(t float64) {
	for i := range tr.a {
		tr.a[i] = 0
	}
	for i := range tr.z {
		tr.z[i] = 0
	}
	dim := tr.dim

	stampG := func(a, b int, g float64) {
		if a > 0 {
			tr.a[(a-1)*dim+(a-1)] += g
		}
		if b > 0 {
			tr.a[(b-1)*dim+(b-1)] += g
		}
		if a > 0 && b > 0 {
			tr.a[(a-1)*dim+(b-1)] -= g
			tr.a[(b-1)*dim+(a-1)] -= g
		}
	}
	inject := func(node int, amps float64) {
		if node > 0 {
			tr.z[node-1] += amps
		}
	}
	vAt := func(node int) float64 {
		if node == Ground {
			return 0
		}
		return tr.newt[node-1]
	}

	// Small leak from every node to ground keeps floating nodes defined.
	for n := 1; n <= tr.nv; n++ {
		tr.a[(n-1)*dim+(n-1)] += nodeLeak
	}

	for _, r := range tr.ckt.resistors {
		stampG(r.a, r.b, 1/r.ohms)
	}
	for _, c := range tr.ckt.caps {
		geq := c.farads / tr.dt
		stampG(c.a, c.b, geq)
		ieq := geq * (tr.V(c.a) - tr.V(c.b))
		inject(c.a, ieq)
		inject(c.b, -ieq)
	}
	for k, src := range tr.ckt.sources {
		row := tr.nv + k
		if src.pos > 0 {
			tr.a[row*dim+(src.pos-1)] = 1
			tr.a[(src.pos-1)*dim+row] = 1
		}
		if src.neg > 0 {
			tr.a[row*dim+(src.neg-1)] = -1
			tr.a[(src.neg-1)*dim+row] = -1
		}
		tr.z[row] = src.wave.At(t)
	}
	for _, m := range tr.ckt.mosfets {
		tr.stampMOSFD(m, vAt, stampG, inject)
	}
}

// stampMOSFD linearizes one MOSFET around the Newton iterate using a
// finite-difference Jacobian.
func (tr *denseTransient) stampMOSFD(m mosfet, vAt func(int) float64,
	stampG func(a, b int, g float64), inject func(node int, amps float64)) {

	vd, vg, vs := vAt(m.d), vAt(m.g), vAt(m.s)
	id0, _, _ := m.params.eval(vd, vg, vs)

	const h = 1e-6
	idD, _, _ := m.params.eval(vd+h, vg, vs)
	idG, _, _ := m.params.eval(vd, vg+h, vs)
	idS, _, _ := m.params.eval(vd, vg, vs+h)
	gdd := (idD - id0) / h
	gdg := (idG - id0) / h
	gds := (idS - id0) / h

	dim := tr.dim
	addA := func(row, col int, v float64) {
		if row > 0 && col > 0 {
			tr.a[(row-1)*dim+(col-1)] += v
		}
	}
	// KCL row of the drain: Id = id0 + gdd*dVd + gdg*dVg + gds*dVs.
	addA(m.d, m.d, gdd)
	addA(m.d, m.g, gdg)
	addA(m.d, m.s, gds)
	// Source row carries the opposite current.
	addA(m.s, m.d, -gdd)
	addA(m.s, m.g, -gdg)
	addA(m.s, m.s, -gds)

	ieq := id0 - gdd*vd - gdg*vg - gds*vs
	inject(m.d, -ieq)
	inject(m.s, ieq)
}

// solveDense performs Gaussian elimination with partial pivoting in place.
// a is an n x n matrix in row-major order; b the right-hand side.
func solveDense(a []float64, b []float64, n int) error {
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		max := abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r*n+col]); v > max {
				pivot, max = r, v
			}
		}
		if max < 1e-18 {
			return fmt.Errorf("%w (column %d)", ErrSingular, col)
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

// eval computes the drain current and small-signal conductances of the
// device at terminal voltages (vd, vg, vs), all referred to ground. The
// returned current flows into the drain terminal. Source/drain are swapped
// internally when the applied polarity is reversed (symmetric device).
func (p MOSParams) eval(vd, vg, vs float64) (id, gm, gds float64) {
	if p.Type == PMOS {
		// Evaluate the dual NMOS with mirrored voltages.
		n := p
		n.Type = NMOS
		id, gm, gds = n.eval(-vd, -vg, -vs)
		return -id, gm, gds
	}

	sign := 1.0
	if vd < vs {
		vd, vs = vs, vd
		sign = -1
	}
	vgs := vg - vs
	vds := vd - vs
	vov := vgs - p.VT0

	const gmin = 1e-12 // leakage floor for Newton stability
	beta := p.KP * p.W / p.L
	switch {
	case vov <= 0:
		// Cutoff: only the stability floor conducts.
		id = gmin * vds
		gds = gmin
		gm = 0
	case vds < vov:
		// Triode region.
		clm := 1 + p.Lambda*vds
		id = beta * (vov*vds - vds*vds/2) * clm
		gm = beta * vds * clm
		gds = beta*(vov-vds)*clm + beta*(vov*vds-vds*vds/2)*p.Lambda + gmin
	default:
		// Saturation.
		clm := 1 + p.Lambda*vds
		id = beta / 2 * vov * vov * clm
		gm = beta * vov * clm
		gds = beta/2*vov*vov*p.Lambda + gmin
	}
	return sign * id, gm, gds
}

// simulateActivationReference runs the Table 2 activation on the dense
// engine, always on the full fixed StepPS grid: it is the accuracy oracle
// of both the fixed-grid and the adaptive production runs, so it never
// steps adaptively. The measurements come from the production loops' own
// activationMeter.
func simulateActivationReference(p CellParams, probe Probe) (ActivationResult, error) {
	if err := p.validate(); err != nil {
		return ActivationResult{}, err
	}
	ckt, n, _ := buildCellCircuit(p)
	tr := newDenseTransient(ckt, p.StepPS*1e-12)
	ns := 1e-9
	m := newActivationMeter(p)
	for tr.t < p.MaxNS*ns {
		if err := tr.stepDense(); err != nil {
			return m.res, err
		}
		tNS := tr.t / ns
		vbl, vcell := tr.V(n.bls), tr.V(n.cellC)
		if probe != nil {
			probe(tNS, vbl, vcell)
		}
		if m.sample(tNS, vbl, vcell) {
			break
		}
	}
	return m.res, nil
}
