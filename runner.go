package rhvpp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"

	"github.com/dramstudy/rhvpp/internal/artifact"
	"github.com/dramstudy/rhvpp/internal/experiments"
	"github.com/dramstudy/rhvpp/internal/pool"
)

// WorkUnit names one independently-executable slice of a study: a per-module
// testbed for the RowHammer / tRCD / retention / word-analysis / CV sweeps,
// a per-VPP-level Monte-Carlo run range for the SPICE study. Units are
// deterministic — the same Options always plan the same units in the same
// catalog/level order — which is what lets a campaign split across processes
// and merge back byte-identically.
type WorkUnit = experiments.UnitRef

// UnitResult carries one executed unit's serialized partial result. The
// payload schema belongs to the study; callers treat it as opaque and feed
// it back through MergeArtifacts (or Campaign, which assembles internally).
type UnitResult struct {
	Unit WorkUnit        `json:"unit"`
	Data json.RawMessage `json:"data"`
}

// Runner executes the work units of one study. It is the campaign's
// execution backend seam: LocalRunner (the default) runs units in-process on
// the bounded worker pool, ProcRunner fans them out to shard subprocesses,
// and future backends (SSH fleets, containers) implement the same contract.
//
// Contract: RunStudy returns one UnitResult per requested unit (any order);
// results must be exactly what experiments.RunUnits produces for the unit,
// so the merge step can fold them in catalog/(level, run) order and
// reproduce single-process output byte for byte. On context cancellation it
// returns an error satisfying errors.Is(err, ctx.Err()).
type Runner interface {
	RunStudy(ctx context.Context, o Options, study Study, units []WorkUnit) ([]UnitResult, error)
}

// LocalRunner executes units in-process: module units Options.Jobs at a time
// through the shared bounded pool, SPICE Monte-Carlo units as one sweep over
// a single global run queue. It is the default backend and reproduces the
// pre-Runner Campaign behavior exactly.
type LocalRunner struct{}

// RunStudy implements Runner.
func (LocalRunner) RunStudy(ctx context.Context, o Options, study Study, units []WorkUnit) ([]UnitResult, error) {
	payloads, err := experiments.RunUnits(ctx, o, string(study), units)
	if err != nil {
		return nil, err
	}
	out := make([]UnitResult, len(units))
	for i, u := range units {
		out[i] = UnitResult{Unit: u, Data: payloads[i]}
	}
	return out, nil
}

// ShardRequest is the subprocess protocol of ProcRunner and `rhvpp
// -shard-exec`: the spawned process reads one request (a JSON file whose
// path is appended to the command line), executes the units under the given
// options, and writes the resulting shard artifact JSON to stdout.
type ShardRequest struct {
	Shard   int        `json:"shard"`
	Of      int        `json:"of"`
	Options Options    `json:"options"`
	Units   []WorkUnit `json:"units"`
}

// DecodeShardRequest reads one ShardRequest — the `-shard-exec` protocol
// input a shard subprocess consumes.
func DecodeShardRequest(r io.Reader) (*ShardRequest, error) {
	var req ShardRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("rhvpp: decoding shard request: %w", err)
	}
	return &req, nil
}

// ProcRunner fans work units out to shard subprocesses, each executing a
// `rhvpp -shard-exec`-style protocol: the runner splits a study's units
// round-robin into Shards groups, spawns Command+[requestPath] per group,
// and collects each group's shard artifact from the subprocess's stdout.
//
// It exists both as a working multi-process backend on one machine and as
// the reference implementation of the artifact plumbing a multi-host backend
// needs; the manual equivalent is `rhvpp -shard i/n` per host plus `rhvpp
// merge`.
type ProcRunner struct {
	// Command is the argv prefix of one shard subprocess, e.g.
	// []string{"/usr/local/bin/rhvpp", "-shard-exec"}. The request file path
	// is appended as the final argument. Required.
	Command []string
	// Shards is the number of subprocesses to split units across (1 if
	// unset or smaller).
	Shards int
}

// RunStudy implements Runner.
func (r ProcRunner) RunStudy(ctx context.Context, o Options, study Study, units []WorkUnit) ([]UnitResult, error) {
	if len(r.Command) == 0 {
		return nil, fmt.Errorf("rhvpp: ProcRunner needs a Command to spawn shard subprocesses")
	}
	shards := r.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > len(units) {
		shards = len(units)
	}
	groups := make([][]WorkUnit, shards)
	for g := range groups {
		var err error
		if groups[g], err = ShardUnits(units, g, shards); err != nil {
			return nil, err
		}
	}
	// Split the worker budget across subprocesses: each shard inheriting the
	// full Jobs setting would oversubscribe the machine shards-fold. The
	// remainder spreads one extra worker over the first shards so the whole
	// budget stays in use. Jobs never changes what a shard measures, only
	// how fast.
	effective := o.Jobs
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	jobsFor := func(g int) int {
		j := effective / shards
		if g < effective%shards {
			j++
		}
		if j < 1 {
			j = 1
		}
		return j
	}

	// Fail fast via the pool: the first shard error cancels the siblings
	// instead of letting hours of doomed work run to completion, and each
	// shard's results land in the pool's own slot for that index — no
	// goroutine writes memory it shares with a sibling.
	idx := make([]int, shards)
	for g := range idx {
		idx[g] = g
	}
	results, err := pool.Run(ctx, shards, idx, func(ctx context.Context, g int) ([]UnitResult, error) {
		so := o
		so.Jobs = jobsFor(g)
		rs, err := r.runShardProc(ctx, so, g, shards, groups[g])
		if err != nil {
			return nil, fmt.Errorf("rhvpp: shard %d/%d: %w", g, shards, err)
		}
		return rs, nil
	})
	if err != nil {
		// The caller's cancellation wins (pool.Run returns it bare);
		// otherwise the pool already preferred the genuine shard failure
		// over cancellation fallout from its own fail-fast cancel.
		if perr := ctx.Err(); perr != nil {
			return nil, fmt.Errorf("rhvpp: shard fan-out: %w", perr)
		}
		return nil, err
	}
	out := make([]UnitResult, 0, len(units))
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out, nil
}

// runShardProc executes one subprocess for one unit group and decodes its
// artifact.
func (r ProcRunner) runShardProc(ctx context.Context, o Options, shard, of int, units []WorkUnit) ([]UnitResult, error) {
	req, err := os.CreateTemp("", "rhvpp-shard-*.json")
	if err != nil {
		return nil, err
	}
	defer os.Remove(req.Name()) //detlint:ignore sinkerr best-effort temp cleanup of the request file
	enc := json.NewEncoder(req)
	if err := enc.Encode(ShardRequest{Shard: shard, Of: of, Options: o, Units: units}); err != nil {
		req.Close() //detlint:ignore sinkerr already failing, the encode error is the one to surface
		return nil, err
	}
	if err := req.Close(); err != nil {
		return nil, err
	}

	var stdout, stderr bytes.Buffer
	args := append(append([]string(nil), r.Command[1:]...), req.Name())
	cmd := exec.CommandContext(ctx, r.Command[0], args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err() // killed by cancellation, not a shard fault
		}
		return nil, fmt.Errorf("%s: %w (stderr: %s)", r.Command[0], err, bytes.TrimSpace(stderr.Bytes()))
	}
	art, err := artifact.Decode(&stdout)
	if err != nil {
		return nil, err
	}
	return unitResultsFromArtifact(art, units)
}

// unitResultsFromArtifact checks that the artifact covers exactly the
// requested units — nothing missing, nothing invented — and converts them.
func unitResultsFromArtifact(art *artifact.Artifact, units []WorkUnit) ([]UnitResult, error) {
	type id struct{ study, key string }
	want := make(map[id]bool, len(units))
	for _, u := range units {
		want[id{u.Study, u.Key}] = true
	}
	got := make(map[id]artifact.Unit, len(art.Units))
	for _, u := range art.Units {
		if !want[id{u.Study, u.Key}] {
			return nil, fmt.Errorf("rhvpp: shard artifact carries unrequested unit %s/%q", u.Study, u.Key)
		}
		got[id{u.Study, u.Key}] = u
	}
	out := make([]UnitResult, len(units))
	for i, w := range units {
		u, ok := got[id{w.Study, w.Key}]
		if !ok {
			return nil, fmt.Errorf("rhvpp: shard artifact is missing unit %s/%q", w.Study, w.Key)
		}
		out[i] = UnitResult{Unit: WorkUnit{Study: u.Study, Key: u.Key, Index: u.Index}, Data: u.Data}
	}
	return out, nil
}

// ShardArtifact is the versioned on-disk encoding of one shard's study
// results; see internal/artifact for the format and compatibility contract.
type ShardArtifact = artifact.Artifact

// EncodeArtifact writes a shard artifact as JSON with deterministic unit
// order.
func EncodeArtifact(w io.Writer, a *ShardArtifact) error { return artifact.Encode(w, a) }

// DecodeArtifact reads one shard artifact, rejecting unknown schemas and
// format versions this build does not speak.
func DecodeArtifact(r io.Reader) (*ShardArtifact, error) { return artifact.Decode(r) }

// ShardableStudies lists the studies that partition into work units, in plan
// order. The waveform study is absent by design: it is a single cheap
// deterministic simulation, recomputed locally by whichever process renders.
func ShardableStudies() []Study {
	names := experiments.ShardableStudies()
	out := make([]Study, len(names))
	for i, n := range names {
		out[i] = Study(n)
	}
	return out
}

// PlanUnits returns the deterministic work units of the given studies
// (default: every shardable study) under o, concatenated in plan order.
// Slicing this list with ShardUnits and executing each slice anywhere — any
// process, any host, any worker count — yields artifacts MergeArtifacts can
// fold back into the exact single-process campaign.
func PlanUnits(o Options, studies ...Study) ([]WorkUnit, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(studies) == 0 {
		studies = ShardableStudies()
	}
	seen := make(map[Study]bool, len(studies))
	var units []WorkUnit
	for _, s := range studies {
		if seen[s] {
			return nil, fmt.Errorf("rhvpp: study %q listed twice", s)
		}
		seen[s] = true
		su, err := experiments.PlanStudy(o, string(s))
		if err != nil {
			return nil, err
		}
		units = append(units, su...)
	}
	return units, nil
}

// Plan returns the campaign's work units for the given studies (default:
// every shardable study).
func (c *Campaign) Plan(studies ...Study) ([]WorkUnit, error) {
	return PlanUnits(c.opts, studies...)
}

// ShardUnits returns the units assigned to shard `shard` of `of`: every
// of-th unit starting at shard, so load spreads across studies and the
// module catalog. The assignment is deterministic and the union over all
// shards is exactly `units`.
func ShardUnits(units []WorkUnit, shard, of int) ([]WorkUnit, error) {
	if of < 1 {
		return nil, fmt.Errorf("rhvpp: shard set size %d < 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("rhvpp: shard index %d outside [0,%d)", shard, of)
	}
	var out []WorkUnit
	for i, u := range units {
		if i%of == shard {
			out = append(out, u)
		}
	}
	return out, nil
}

// canonicalOptions is the options fingerprint embedded in artifacts.
// Execution-irrelevant knobs are excluded: Jobs changes only how fast a
// shard runs, never what it measures, so shards produced at different
// worker counts merge freely.
func canonicalOptions(o Options) (json.RawMessage, error) {
	//detlint:execshape Jobs only splits the worker budget; every unit computes the same bytes at any count
	o.Jobs = 0
	raw, err := json.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("rhvpp: encoding options: %w", err)
	}
	return raw, nil
}

// RunShard executes the given units in-process and packages their results as
// shard `shard` of `of`. It is the library form of `rhvpp -shard i/n`.
func RunShard(ctx context.Context, o Options, shard, of int, units []WorkUnit) (*ShardArtifact, error) {
	return RunShardObserved(ctx, o, shard, of, units, nil)
}

// MergeArtifacts validates a complete shard set and opens a Campaign whose
// covered studies are preloaded from the artifacts, folded in catalog/(level,
// run) order — rendering any experiment from it reproduces the
// single-process campaign byte for byte. Studies absent from the artifacts
// (and the deliberately-local waveform study) compute on first use, so the
// merged campaign can still render every experiment id.
//
// The campaign options come from the artifacts themselves; all shards must
// carry the identical canonical options, and those options must re-encode
// to the same bytes. Decoding ignores unknown fields, so the re-encoding is
// what refuses artifacts measured under an option this binary no longer
// has (such as a retired SPICE tolerance), instead of rendering their
// results under the options that remain.
func MergeArtifacts(arts ...*ShardArtifact) (*Campaign, error) {
	merged, err := artifact.Merge(arts)
	if err != nil {
		return nil, err
	}
	var o Options
	if err := json.Unmarshal(merged.Options, &o); err != nil {
		return nil, fmt.Errorf("rhvpp: decoding artifact options: %w", err)
	}
	canon, err := canonicalOptions(o)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(canon, merged.Options) {
		return nil, fmt.Errorf("rhvpp: artifact options %s do not re-encode to themselves (%s): they carry an unknown or retired option", merged.Options, canon)
	}
	c, err := NewCampaign(o)
	if err != nil {
		return nil, err
	}
	byStudy := make(map[string]map[string]json.RawMessage)
	for _, u := range merged.Units {
		m := byStudy[u.Study]
		if m == nil {
			m = make(map[string]json.RawMessage)
			byStudy[u.Study] = m
		}
		m[u.Key] = u.Data
	}
	for study, data := range byStudy {
		switch Study(study) {
		case StudyRowHammer:
			st, err := experiments.AssembleRowHammerStudy(o, data)
			if err != nil {
				return nil, err
			}
			c.rowhammer.set(st)
		case StudyTRCD:
			st, err := experiments.AssembleTRCDStudy(o, data)
			if err != nil {
				return nil, err
			}
			c.trcd.set(st)
		case StudyRetention:
			st, err := experiments.AssembleRetentionStudy(o, data)
			if err != nil {
				return nil, err
			}
			c.retention.set(st)
		case StudyWordAnalysis:
			st, err := experiments.AssembleWordAnalysis(o, data)
			if err != nil {
				return nil, err
			}
			c.words.set(st)
		case StudyCV:
			st, err := experiments.AssembleCVStudy(o, data)
			if err != nil {
				return nil, err
			}
			c.cv.set(st)
		case StudySpiceMC:
			st, err := experiments.AssembleMCStudy(o, data)
			if err != nil {
				return nil, err
			}
			c.spiceMC.set(st)
		default:
			return nil, fmt.Errorf("rhvpp: artifact carries units of unknown study %q", study)
		}
	}
	return c, nil
}
