// Package stats provides the statistical primitives used by the
// characterization methodology and the experiment studies: summary
// statistics (mean, standard deviation, coefficient of variation), order
// statistics (percentiles, confidence intervals), and binned population
// densities for the paper's population-distribution figures (Figs. 4, 6,
// 8b, 9b, 10b).
//
// Two layers share one vocabulary: the batch helpers in stats.go operate on
// whole []float64 samples (and serve as the accuracy oracles in the tests),
// while the streaming accumulators in stream.go (Moments, MinMax,
// ValueCounts, and the composite Dist) fold samples one at a time with
// memory independent of the sample count — the form the campaign
// aggregation pipeline uses so run counts stop bounding memory.
//
// # Accuracy and merge-ordering invariants
//
// The batch-vs-streaming contract (detailed in stream.go):
//
//   - Means folded in sample order are bit-identical to the batch helpers;
//     pool.RunOrdered's index-order delivery fixes that order at any worker
//     count. Catalog-order merges of per-module partials are deterministic
//     but may differ from a flat concatenated sum in the last ulp.
//   - Min/max/quantiles/fractions/histograms are exact via the ValueCounts
//     lossless multiset regardless of merge order.
//   - Variance uses Welford's recurrence, within ~1e-12 relative of the
//     two-pass batch value.
//
// # Serializability
//
// Every accumulator round-trips losslessly through JSON
// (marshal.go): floats are encoded so they decode bit-exactly, and decode
// validates internal consistency before the value is usable. Merging
// round-tripped partials therefore reproduces whole-stream accumulation
// under the same ordering rules above — the property shard artifacts rely
// on. Merge order is always the caller's catalog/(level, run) order, never
// discovery order.
//
// All functions are pure and operate on copies where mutation would
// otherwise leak to the caller.
//
// The streaming accumulators' Add methods carry //detlint:hotpath
// annotations: the hotalloc analyzer keeps them free of per-sample heap
// allocations (ValueCounts' one-time lazy map init is the single reasoned
// exception); the contract is catalogued in docs/CONTRACTS.md. That every
// Merge covers all serialized state is pinned at runtime by the
// *MergePinsWholeStream tests, which fold round-tripped partials and
// compare against whole-stream accumulation.
package stats
