package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a campaign
// iteration, an HTTP request) share a trace id; Parent is 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs call layers exactly as traced ones do.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span named name and returns fn's error. fn receives the
// span's id to parent its own spans.
func (r *recorder) do(name string, parent, trace int, fn func(id int) error) error {
	if r == nil {
		return fn(0)
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name})
	r.mu.Unlock()
	start := time.Since(r.t0)
	err := fn(id)
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover; overlapping children count once.
func selfTime(spans []span, id int) time.Duration {
	var parent span
	var kids [][2]time.Duration
	for _, s := range spans {
		switch {
		case s.ID == id:
			parent = s
		case s.Parent == id:
			kids = append(kids, [2]time.Duration{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered := time.Duration(0)
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k[0], at), min(k[1], parent.End)
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return parent.dur() - covered
}

// writeSpans writes the run's spans as JSON to path.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
