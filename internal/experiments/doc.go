// Package experiments contains the measurements behind every table and
// figure of the paper's evaluation, plus the ablation studies (`rhvpp
// -list`). A shared study's per-module function (RunModuleSweep,
// RunTRCDSweep, RunModuleRetention, RunModuleWords, ...) assembles a
// testbed, runs the core characterization algorithms across the VPP sweep,
// and returns one module's partial; the assembled study carries render
// helpers that emit the same rows/series the paper reports through a
// report.Encoder.
//
// # Execution model
//
// Every shared study runs one way: it partitions into deterministic work
// units (PlanStudy), one per-module testbed for the RowHammer / tRCD /
// retention / word-analysis / CV sweeps and one per-VPP-level Monte-Carlo
// run range for the SPICE study. RunUnits executes units under a
// context.Context with a bounded worker pool (Options.Jobs) and returns
// each unit's typed partial; the study's StudyFold folds the partials back
// in catalog/(level, run) order, either as computed (Fold) or decoded from
// the JSON a shard artifact or store entry carries (Assemble). Bytes exist
// only where a partial leaves the process. Per-module testbeds are fully
// independent and deterministically seeded, so output is byte-identical at
// any worker count and any split of the units into shard artifacts. The
// SPICE Monte-Carlo units of one RunUnits call share one global run queue
// with per-level accumulators folded in (level, run) order; it integrates
// adaptively with crossings quantized onto the fixed 25 ps grid (identical
// values to fixed-grid integration — see internal/spice). The fixed grid
// itself only samples the Fig. 8a/9a waveforms. The waveform study is
// deliberately not sharded: it is one cheap deterministic simulation that
// takes no options (RunWaveforms), computed once by whichever process
// renders and shared by every Campaign in it.
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
// shard-protocol catalog (ShardableStudies); TestUnitPathIndependentOfSplit
// requires every catalog study to assemble to the same result however its
// units are split across RunUnits calls, and the root package's
// TestPartialsRoundTrip requires every unit's typed partial to survive its
// JSON round trip deeply equal, so Fold and Assemble agree.
package experiments
