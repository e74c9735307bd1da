// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablation studies (`rhvpp -list`). Each
// driver assembles a testbed per module, runs the core characterization
// algorithms across the VPP sweep, and returns structured results together
// with render helpers that emit the same rows/series the paper reports
// through a report.Encoder.
//
// # Execution model
//
// Study drivers accept a context.Context for cancellation and sweep the
// selected modules with a bounded worker pool (Options.Jobs). Per-module
// testbeds are fully independent and deterministically seeded, and results
// are merged in catalog order, so output is byte-identical at any worker
// count. The SPICE Monte-Carlo study runs all VPP levels through one
// global run queue with per-level accumulators folded in (level, run)
// order; it integrates adaptively with crossings quantized onto the fixed
// 25 ps grid (identical values to fixed-grid integration — see
// internal/spice). The fixed grid itself only samples the Fig. 8a/9a
// waveforms.
//
// # Sharding
//
// Every shared study partitions into deterministic work units (PlanStudy):
// one per-module testbed for the RowHammer / tRCD / retention /
// word-analysis / CV sweeps, one per-VPP-level Monte-Carlo run range for
// the SPICE study. Unit partials serialize to JSON (RunUnits), travel as
// shard artifacts, and fold back in catalog/(level, run) order
// (Assemble*), reproducing the single-process output byte for byte. The
// waveform study is deliberately not sharded: it is one cheap
// deterministic simulation, recomputed locally by whichever process
// renders.
//
// # Aggregation invariants
//
// Aggregation is streaming end to end: per-row and per-run measurements
// fold into internal/stats accumulators (exact means, extremes, quantiles,
// fractions) as they are produced, and per-module partials merge in
// catalog order — never by concatenating retained sample slices. For
// grid-quantized series (SPICE latencies on the integration grid, k/N bit
// error rates) the exact-quantile state is bounded by the grid regardless
// of scale; for the continuous ratio populations (normalized HC/BER, CVs)
// it is bounded by the number of distinct samples — the configured row
// selection.
//
// Drivers must observe the determinism contracts of docs/DETERMINISM.md
// (sorted map walks, total comparators, internal/rng only, cancellable
// loops); `go run ./cmd/detlint ./...` checks them statically, and the
// root package's TestCanonicalOptionsContract holds Options to its frozen
// v1 fingerprint field set (docs/CONTRACTS.md). This package defines the
// shard-protocol catalog (ShardableStudies); TestUnitPathMatchesDirectDrivers
// requires every catalog study to reproduce its direct driver through
// PlanStudy, RunUnits and its Assemble* function.
package experiments
