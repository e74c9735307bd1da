package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// baselineJSON is benchmark/baseline.json: the baseline and holdout seeds,
// the output pins, and the recorded sets of runs.
//
//go:embed baseline.json
var baselineJSON []byte

type baselineRecord struct {
	BaselineSeed uint64  `json:"baseline_seed"`
	HoldoutSeed  uint64  `json:"holdout_seed"`
	RunSeconds   float64 `json:"run_seconds"`
	// Pins maps each batch workload to the sha256 of one iteration's output
	// at the baseline seed and full scale.
	Pins    map[string]string `json:"pins"`
	Sets    []summary         `json:"sets"`
	Holdout *summary          `json:"holdout,omitempty"`
}

var baseline = func() baselineRecord {
	var b baselineRecord
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic("benchmark/baseline.json: " + err.Error())
	}
	return b
}()

// pinFor returns the pinned output hash of a workload at a seed, if any.
func pinFor(workload string, seed uint64) string {
	if seed != baseline.BaselineSeed {
		return ""
	}
	return baseline.Pins[workload]
}

// stat summarizes one metric over a set of runs; the quartiles are Python's
// statistics.quantiles(values, n=4).
type stat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// summary is one set of runs: each workload once per seed.
type summary struct {
	Seed          uint64                     `json:"seed"`
	Runs          int                        `json:"runs"`
	Seconds       float64                    `json:"seconds"`
	NProc         int                        `json:"nproc"`
	GoVersion     string                     `json:"go_version"`
	ServeRequests int                        `json:"serve_requests"`
	Failed        int                        `json:"failed"`
	Workloads     map[string]map[string]stat `json:"workloads"`
}

// endToEnd is one end_to_end entry of BENCHMARK.json.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readEndToEnd(path string) ([]endToEnd, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readSummary loads a summary printed by an earlier repeat run, or the last
// recorded set of a baseline record.
func readSummary(path string) (*summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec baselineRecord
	if err := json.Unmarshal(raw, &rec); err == nil && len(rec.Sets) > 0 {
		return &rec.Sets[len(rec.Sets)-1], nil
	}
	var s summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// repeat runs each workload n times in a row, one child process per run with
// seeds seed..seed+n-1. Runs of one workload are consecutive, so its spread
// reflects run-to-run noise, not the host's load drifting over the whole
// set. It prints every end-to-end metric's median, quartiles and spread
// (interquartile distance over the median) against its BENCHMARK.json bound,
// and with a previous set, the change of the median as a share of the
// previous one (positive = worse). It fails when a spread other than
// setup_s's or a median change exceeds the bound.
func repeat(ctx context.Context, cfg config, n int, against string) error {
	spec, err := readEndToEnd(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var prev *summary
	if against != "" {
		if prev, err = readSummary(against); err != nil {
			return err
		}
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	sum := summary{Seed: cfg.seed, Runs: n, Seconds: cfg.seconds, NProc: nproc, GoVersion: runtime.Version(),
		ServeRequests: serveRequests, Workloads: make(map[string]map[string]stat)}
	values := make(map[string]map[string][]float64)
	for _, w := range names {
		for i := 0; i < n; i++ {
			c := cfg
			c.workload, c.seed, c.traced = w, cfg.seed+uint64(i), false
			res, err := child(ctx, c)
			if err != nil {
				return err
			}
			sum.Failed += res.Failed
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for k, m := range res.Metrics {
				values[w][k] = append(values[w][k], m.Value)
			}
		}
	}

	fmt.Printf("%-18s %-14s %12s %12s %12s %7s %6s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "vs-prev")
	outside := 0
	for _, w := range names {
		sum.Workloads[w] = make(map[string]stat)
		for _, e := range spec {
			xs := values[w][e.Name]
			q1, q2, q3 := quartiles(xs)
			st := stat{Median: q2, Q1: q1, Q3: q3, Spread: spread(xs), Values: xs}
			sum.Workloads[w][e.Name] = st
			line := fmt.Sprintf("%-18s %-14s %12.6g %12.6g %12.6g %7.4f %6.3f", w, e.Name, q2, q1, q3, st.Spread, e.Bound)
			if st.Spread > e.Bound && e.Name != "setup_s" {
				line += " SPREAD"
				outside++
			}
			if prev != nil {
				if p, ok := prev.Workloads[w][e.Name]; ok && p.Median != 0 {
					worse := (q2 - p.Median) / p.Median
					if e.Better == "higher" {
						worse = -worse
					}
					line += fmt.Sprintf(" %+8.4f", worse)
					if worse > e.Bound {
						line += " WORSE"
						outside++
					}
				}
			}
			fmt.Println(line)
		}
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	switch {
	case sum.Failed > 0:
		return errFailed
	case outside > 0:
		return errors.New("metrics outside their BENCHMARK.json bounds")
	}
	return nil
}
