package spice

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

// MOSFET polarities.
const (
	NMOS MOSType = iota + 1
	PMOS
)

// MOSParams is a level-1 (Shichman-Hodges) MOSFET parameter set, adequate
// for the charge-sharing and latch dynamics this study needs.
type MOSParams struct {
	Type MOSType
	// W and L are channel width and length in meters.
	W, L float64
	// VT0 is the zero-bias threshold voltage (positive for NMOS; for PMOS
	// the magnitude is used).
	VT0 float64
	// KP is the transconductance parameter (A/V^2), i.e. u0*Cox.
	KP float64
	// Lambda is the channel-length modulation coefficient (1/V).
	Lambda float64
}

// mosDev is one MOSFET's evaluation constants, folded once per run: the
// reduced engine stores one per device on every restamp, so the Newton
// iterations never recompute β = KP·W/L.
type mosDev struct {
	pmos              bool
	vt0, beta, lambda float64
}

// dev folds p into its evaluation constants.
func (p *MOSParams) dev() mosDev {
	return mosDev{pmos: p.Type == PMOS, vt0: p.VT0, beta: p.KP * p.W / p.L, lambda: p.Lambda}
}

// stamp computes the drain current and its partial derivatives with respect
// to the three terminal voltages, ready for an MNA stamp:
//
//	Id ≈ id + gdd*(Vd-vd) + gdg*(Vg-vg) + gds*(Vs-vs)
//
// The partials are exact closed forms of the level-1 model (translation
// invariance holds: gdd+gdg+gds == 0 up to the gmin floor), so the Newton
// linearization needs one model evaluation per device instead of the four a
// finite-difference Jacobian costs.
//
// The body is the level-1 model (MOSParams.eval, the device model of the
// dense oracle in dense_test.go) flattened into a single call-free
// function: the float operations are identical to eval's, in the same
// order, so the results are bit-for-bit equal. It is the engine's one
// device evaluation, called by both the fixed-slot cell kernel and the
// fallback stamp.
func (d *mosDev) stamp(vd, vg, vs float64) (id, gdd, gdg, gds float64) {
	neg := 1.0
	if d.pmos {
		// Id = -In(-vd,-vg,-vs): the two mirror signs cancel in every
		// partial, so the PMOS partials equal the dual NMOS partials at the
		// mirrored operating point.
		vd, vg, vs = -vd, -vg, -vs
		neg = -1
	}
	sign := 1.0
	if vd < vs {
		vd, vs = vs, vd
		sign = -1
	}
	vgs := vg - vs
	vds := vd - vs
	vov := vgs - d.vt0

	const gmin = 1e-12
	beta := d.beta
	var i, gm, gd float64
	switch {
	case vov <= 0:
		i = gmin * vds
		gd = gmin
		gm = 0
	case vds < vov:
		clm := 1 + d.lambda*vds
		i = beta * (vov*vds - vds*vds/2) * clm
		gm = beta * vds * clm
		gd = beta*(vov-vds)*clm + beta*(vov*vds-vds*vds/2)*d.lambda + gmin
	default:
		clm := 1 + d.lambda*vds
		i = beta / 2 * vov * vov * clm
		gm = beta * vov * clm
		gd = beta/2*vov*vov*d.lambda + gmin
	}
	i *= sign
	if sign > 0 {
		// Forward operation: gm = dId/dVgs and gds = dId/dVds give the
		// terminal partials directly.
		return neg * i, gd, gm, -(gm + gd)
	}
	// Reversed operation: drain and source swapped above and the current
	// negated; the chain rule maps the forward-oriented gm/gd back to the
	// external terminals.
	return neg * i, gm + gd, -gm, -gd
}
