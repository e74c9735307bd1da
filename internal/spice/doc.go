// Package spice implements a compact SPICE-class transient circuit
// simulator: modified nodal analysis (MNA) with backward-Euler integration
// and Newton-Raphson iteration over level-1 MOSFET models. It exists to
// reproduce the paper's circuit-level study (§4.5, Figs. 8 and 9): the DRAM
// cell / bitline / sense-amplifier netlist of Table 2, simulated across VPP
// levels with Monte-Carlo parameter variation.
//
// Circuits are built from resistors, capacitors, piecewise-linear voltage
// sources and MOSFETs, but the transient engine (NewTransient) solves one
// netlist: Table 2's cell, bitline and sense amplifier, the only circuit
// the paper simulates, and returns an error for any other. It integrates on
// a fixed base time grid, with error-controlled adaptive coarsening through
// quiescent stretches unless CellParams.Adaptive is false. Only the
// features the paper's study needs are implemented — no AC analysis, no
// higher-order integration.
//
// # Engine and accuracy contracts
//
// The engine eliminates the nodes its grounded sources pin, assembles the
// static stamps once per step size, and runs each Newton iteration of the
// six remaining unknowns in a fixed-slot kernel with analytic MOSFET
// linearizations. Its accuracy is pinned to the dense finite-difference MNA
// engine it replaced, which re-stamps the full system with
// finite-difference Jacobians on every Newton iteration and now lives in
// the package's tests as their oracle (dense_test.go):
//
//   - On the fixed grid (CellParams.Adaptive false) the engine matches the
//     oracle within 1e-9 V on the Fig. 8a/9a waveforms at every sweep VPP
//     (TestGoldenIncrementalMatchesReference).
//   - Adaptive stepping (CellParams.Adaptive, set by DefaultCellParams and
//     the only Monte-Carlo stepper) adds step-doubling error control,
//     covering quiescent stretches with multi-cell coarse steps. Samples
//     stay within AccuracyTolV of the oracle at shared grid times
//     (TestAdaptiveMatchesReference), and reported threshold crossings
//     (tRCDmin, tRASmin) are quantized onto the base grid with values
//     BIT-IDENTICAL to fixed-grid integration across the sweep and the
//     golden Monte-Carlo population (TestAdaptiveCrossingsMatchFixedGrid)
//     — the invariant that keeps the campaign goldens and shard artifacts
//     byte-stable. The same test checks 200 runs per level at seeds 2022
//     and 7; one of those 3,600 runs, a very slow restore, crosses one cell
//     early (knownRestoreLag). Its tolerances are fixed constants, not
//     options. The fixed grid remains for the Fig. 8a/9a waveforms, which
//     need uniform samples, and as the oracle of these tests.
//
// # Newton predictors
//
// Each implicit solve starts Newton from an extrapolation of the converged
// history, which changes the iteration count but not the fixed point. The
// fixed grid extrapolates linearly with the literal 2*x-y form: its step
// never changes, and the Fig. 8a/9a waveforms it produces are printed at
// full precision, so its bits stay pinned. The adaptive stepper, once
// three solutions exist, extrapolates the Lagrange quadratic through them
// at their real step spacings, so most of its solves converge in one
// iteration instead of two (TestScaledPredictorIterations pins both
// modes' counts). The quadratic's three weights depend only on the
// spacing triple, so they are cached and recomputed only when the triple
// changes: base stepping and runs of trusted coarse steps repeat one.
// newAdaptiveStepper selects the quadratic form and Transient.Reset clears
// it; engine snapshots carry the three-point history, so rejected trials
// and rewinds restore it exactly.
//
// # Determinism and memory
//
// Monte-Carlo campaigns (RunMonteCarloSweep, one or more VPP levels) draw
// every run from a per-level, per-index RNG stream and fold outcomes into streaming
// stats.Dist accumulators in strict (level, run) order through
// pool.RunOrdered, so results are byte-identical at any worker count and
// campaign memory is independent of the run count. There is one execution
// path: each worker simulates one run at a time through its own reused
// Workspace (re-stamping values instead of rebuilding the netlist), which
// is bit-identical to a fresh simulation and allocation-free in steady
// state. MCResult.Merge folds same-level run-range partials in run order
// for sharded campaigns.
//
// The allocation-free property is a checked contract, not a convention:
// the stepping core (Transient.Step, Reset, setDt, stampCellValues), the
// fixed-slot Newton kernel of the Table 2 netlist (cellIter), and the
// aggregation fold (MCResult.record) carry //detlint:hotpath
// annotations naming their runtime AllocsPerRun witnesses, and the
// hotalloc analyzer flags any heap allocation reachable from them (see
// docs/CONTRACTS.md). That MCResult.Merge and its JSON round trip cover
// every field is pinned at runtime by TestMCResultMergeMatchesWholeStream
// and TestMCResultJSONRoundTrip.
package spice
