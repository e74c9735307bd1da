// Package rhvpp is a full-system reproduction of "Understanding RowHammer
// Under Reduced Wordline Voltage: An Experimental Study Using Real DRAM
// Devices" (DSN 2022) as a Go library.
//
// The physical study cannot run without 272 DDR4 chips, an FPGA, and a lab
// power supply; this package substitutes a behavioral DDR4 device simulator
// calibrated against every number the paper publishes (internal/physics), a
// SoftMC-class memory controller, the bench instruments around them, and a
// SPICE-class circuit simulator for the paper's Figs. 8-9 — and then runs
// the paper's own characterization algorithms on top.
//
// Two entry points cover most uses:
//
//   - Lab gives interactive access to a single simulated module: sweep VPP,
//     hammer rows, measure HCfirst / BER / tRCDmin / retention, exactly as
//     the paper's Algorithms 1-3 do.
//   - Campaign is one characterization session over the tested population,
//     mirroring how the paper's evaluation works: a handful of underlying
//     studies (the RowHammer sweep, the tRCD sweep, the retention ladder,
//     the SPICE waveform and Monte-Carlo campaigns, the word-granularity
//     analysis) each run once — concurrently across modules, cancellable
//     via context — and every table and figure renders from those shared
//     results through a pluggable text/JSON/CSV encoder.
//
// A minimal session:
//
//	c, err := rhvpp.NewCampaign(rhvpp.DefaultOptions())   // validates Options
//	enc, err := rhvpp.NewEncoder(rhvpp.FormatJSON, os.Stdout)
//	for _, e := range rhvpp.Experiments() {
//		if err := c.Run(ctx, e.ID, enc); err != nil { ... }
//	}
//
// RunExperiment remains as a one-shot convenience wrapper over a throwaway
// Campaign for callers that only need a single table or figure.
//
// # Determinism and accuracy contracts
//
// Two invariants hold across every execution shape and are pinned by the
// golden tests (see docs/ARCHITECTURE.md for the full paper-to-code map):
//
//   - Byte-identical rendering at any scale-out: the same Options render
//     the same bytes at any Options.Jobs worker count and across any
//     -shard i/n split merged with MergeArtifacts — work units are deterministic, every
//     parallel unit draws from its own index-derived RNG stream, and
//     partials fold in catalog/(level, run) order.
//   - Dense-reference accuracy: the SPICE engines are pinned to the dense
//     finite-difference reference — 1e-9 V for the incremental engine on
//     the fixed grid, spice.AccuracyTolV for the adaptive engine that runs
//     every Monte-Carlo campaign, whose grid-quantized threshold crossings
//     are bit-identical to fixed-grid integration on the golden population
//     (one known one-cell restore lag excepted). The fixed grid is a code
//     path for the Fig. 8a/9a waveforms and the test oracles, not an option.
//
// Campaigns can be split across processes or hosts with Plan / ShardUnits /
// RunShard / MergeArtifacts; see README.md for the CLI workflow.
//
// The coding invariants behind the byte-identical guarantee are catalogued
// in docs/DETERMINISM.md and enforced statically by the internal/analysis
// suite: `go run ./cmd/detlint ./...`. The shard protocol is pinned by
// runtime tests (docs/CONTRACTS.md): TestCanonicalOptionsContract holds the
// canonical options fingerprint to its frozen v1 field set and Jobs-only
// exclusion, and internal/experiments' TestUnitPathIndependentOfSplit
// makes every study in its shard catalog assemble to the same result
// however its work units are split.
package rhvpp
