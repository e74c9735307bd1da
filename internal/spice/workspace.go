package spice

// Workspace is a reusable activation simulator: the Table 2 netlist, the
// Transient engine, and every solver allocation are built once
// and re-stamped with each run's varied parameters instead of being rebuilt
// per run. A Monte-Carlo worker that owns a Workspace performs no steady-
// state allocations per run (asserted by TestWorkspaceSimulateAllocs), which
// is where most of the per-run constant cost outside the Newton loop went.
//
// A reused Workspace's Simulate is bit-identical to a fresh one's, which is
// SimulateActivation, for the same parameters: the re-stamp path writes
// exactly the values the builder writes, and Transient.Reset replays the
// static assembly in construction order.
//
// A Workspace is not safe for concurrent use; give each worker its own
// (RunMonteCarloSweep hands them out through a sync.Pool).
type Workspace struct {
	dt float64 // engine time step the netlist was built at (seconds)

	ckt   *Circuit
	nodes cellNodes
	waves cellWaves
	tr    *Transient
}

// NewWorkspace returns an empty workspace; the netlist is built lazily on
// the first Simulate.
func NewWorkspace() *Workspace { return &Workspace{} }

// Simulate runs one activation with the given parameters, reusing the
// netlist and solver state from previous calls. The netlist topology is
// fixed; only a change of integration step forces a rebuild (the Monte-Carlo
// variation never touches StepPS).
func (ws *Workspace) Simulate(p CellParams, probe Probe) (ActivationResult, error) {
	if err := p.validate(); err != nil {
		return ActivationResult{}, err
	}
	dt := p.StepPS * 1e-12
	if ws.tr == nil || dt != ws.dt {
		ws.ckt, ws.nodes, ws.waves = buildCellCircuit(p)
		tr, err := NewTransient(ws.ckt, dt)
		if err != nil {
			return ActivationResult{}, err
		}
		ws.tr, ws.dt = tr, dt
	} else {
		stampCellValues(ws.ckt, ws.nodes, ws.waves, p)
		ws.tr.Reset()
	}
	return measureActivation(ws.tr, ws.nodes, p, probe)
}
