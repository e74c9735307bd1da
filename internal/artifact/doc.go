// Package artifact defines the versioned on-disk encoding of a campaign
// shard's study results. A shard artifact is what `rhvpp -shard i/n` emits
// and what `rhvpp merge` consumes: a self-describing JSON document carrying
// the campaign options it was measured under plus one serialized partial
// result per executed work unit (a per-module testbed for the module-sweep
// studies, a per-VPP-level Monte-Carlo range for the SPICE study).
//
// # Versioning and compatibility contract
//
//   - Schema names the document type; Version is the format revision. Both
//     are checked on decode: a reader accepts exactly the versions it knows
//     (currently only Version 1) and rejects anything else with an error
//     that names both versions, so a fleet mixing binaries fails loudly at
//     merge time instead of mis-aggregating. Bump Version on any
//     incompatible payload or envelope change.
//   - Artifacts merge only with artifacts from the SAME campaign: the
//     canonical options encoding (execution-irrelevant knobs like worker
//     counts excluded by the producer; default-valued additive knobs
//     omitted via omitempty, so older artifacts stay mergeable) must match
//     byte-for-byte, the shard set must be exactly {0..of-1} with no
//     duplicates, and no two shards may carry the same (study, unit) twice.
//   - Unit payloads are opaque json.RawMessage here; their schema belongs to
//     the study that produced them (internal/experiments), which validates
//     completeness against its own plan when assembling. Payload statistics
//     are internal/stats accumulators with lossless JSON round-trips, so a
//     merged campaign renders byte-identically to a single-process run.
//
// # Determinism
//
// Encoded artifacts are deterministic: units are sorted by (study, index,
// key) before encoding regardless of execution order, and Encode writes
// stable indented JSON. Two shards that executed the same units under the
// same options produce identical bytes.
//
// The full catalog of determinism and shard-safety invariants — including
// why partial structs must carry only serializable accumulators — lives in
// docs/DETERMINISM.md; the internal/analysis suite (`go run ./cmd/detlint
// ./...`) enforces them at compile time. The error-handling contract on
// this package — no silently discarded encode/write/close errors on the
// artifact path — is enforced by the gen-2 sinkerr analyzer, and lossless
// merges of the partials it carries are pinned by runtime tests
// (docs/CONTRACTS.md).
package artifact
