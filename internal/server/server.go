// Package server implements the `rhvpp serve` HTTP API: campaign-as-a-service
// over the same Campaign engine the CLI drives. A request names an experiment
// and (optionally) campaign knobs; the server resolves the knobs to canonical
// options, collapses concurrent requests for the same canonical-options
// fingerprint onto one computation (singleflight), persists each completed
// study to a content-addressed artifact store so restarts serve from disk,
// and renders responses through the same report encoders as the CLI —
// byte-identical output for the same options, whichever surface asked.
//
// The dataflow for GET /v1/experiments/{id} is:
//
//	query knobs ──optparse──▶ Options ──fingerprint──▶ singleflight ──▶ Campaign cells
//	                                                        │          (store entry or compute,
//	                                                        │           one per study)
//	response ◀──report.Encoder── Campaign (memoized cells) ◀┘
//
// Cancellation follows the campaign's cell semantics: a waiter abandoning a
// flight never poisons it for concurrent waiters; only when the last waiter
// leaves is the computation canceled, and a later request starts fresh.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/optparse"
)

// ErrDraining is the refusal new campaign requests receive (as a 503) while
// the server drains for shutdown.
var ErrDraining = errors.New("rhvpp: server is draining, not accepting new campaigns")

// sessionCap bounds how many completed campaigns stay memoized in memory;
// beyond it the least recently used session is dropped (its study entries
// remain in the store, so re-requesting it is a disk hit, not a recompute).
const sessionCap = 8

// ComputeFunc produces a campaign for validated options, reporting progress
// to fn and whether every study came from the store. The default is
// rhvpp.CachedCampaign; tests inject deterministic fakes.
type ComputeFunc func(ctx context.Context, o rhvpp.Options, st *rhvpp.ArtifactStore, fn rhvpp.ProgressFunc) (c *rhvpp.Campaign, fromStore bool, err error)

// Config assembles a Server.
type Config struct {
	// Base is the campaign options a request starts from before its query
	// knobs apply (the CLI's -preset flag resolves to this).
	Base rhvpp.Options
	// Store persists completed studies across restarts; nil disables
	// persistence (every cold request computes).
	Store *rhvpp.ArtifactStore
	// Compute overrides the campaign computation; nil means
	// rhvpp.CachedCampaign.
	Compute ComputeFunc
}

// Server is the serve API's state: the singleflight table of in-flight
// computations and the least-recently-used cache of completed campaigns.
type Server struct {
	base    rhvpp.Options
	store   *rhvpp.ArtifactStore
	compute ComputeFunc

	mu       sync.Mutex
	flights  map[string]*flight  // fingerprint → in-flight computation
	sessions map[string]*session // fingerprint → completed campaign
	order    []string            // sessions from least to most recently used
	draining bool

	computations atomic.Int64 // campaigns that computed at least one study
	diskHits     atomic.Int64 // campaigns whose every study came from the store
	memHits      atomic.Int64 // requests served from a live session
}

// flight is one in-flight campaign computation and its waiters. The result
// fields are written exactly once, before done closes; everything else is
// guarded by Server.mu (waiters) or internally synchronized (log).
type flight struct {
	fp      string
	opts    rhvpp.Options
	ctx     context.Context
	cancel  context.CancelFunc
	log     *progressLog
	waiters int // guarded by Server.mu

	done     chan struct{}
	camp     *rhvpp.Campaign
	fromDisk bool
	err      error
}

// session is a completed campaign retained in memory: the memoized Campaign
// plus its finished progress log (so /progress stays answerable after the
// flight lands).
type session struct {
	camp *rhvpp.Campaign
	log  *progressLog
}

// New assembles a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		base:     cfg.Base,
		store:    cfg.Store,
		compute:  cfg.Compute,
		flights:  make(map[string]*flight),
		sessions: make(map[string]*session),
	}
	if s.compute == nil {
		s.compute = rhvpp.CachedCampaign
	}
	return s
}

// Handler returns the API's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statusz", s.handleStatusz)
	mux.HandleFunc("GET /v1/experiments", s.handleCatalog)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("GET /v1/studies/{fp}/progress", s.handleProgress)
	return mux
}

// ---- singleflight -----------------------------------------------------

// campaignFor resolves options to a campaign: a live session is a memory
// hit, an in-flight computation is joined, otherwise a new flight launches.
// cacheState reports which path served the request: "mem", "disk", or
// "compute".
func (s *Server) campaignFor(ctx context.Context, o rhvpp.Options) (c *rhvpp.Campaign, cacheState, fp string, err error) {
	fp, err = rhvpp.OptionsFingerprint(o)
	if err != nil {
		return nil, "", "", err
	}
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, "", fp, ErrDraining
		}
		if sess, ok := s.sessions[fp]; ok {
			s.touch(fp)
			s.mu.Unlock()
			s.memHits.Add(1)
			return sess.camp, "mem", fp, nil
		}
		fl, ok := s.flights[fp]
		if !ok {
			fctx, cancel := context.WithCancel(context.Background())
			fl = &flight{
				fp: fp, opts: o, ctx: fctx, cancel: cancel,
				log: newProgressLog(), done: make(chan struct{}),
			}
			s.flights[fp] = fl
			go fl.run(s)
		}
		fl.waiters++
		s.mu.Unlock()

		select {
		case <-fl.done:
			s.leave(fl)
			if fl.err != nil {
				// A flight canceled because its last waiter left reports
				// context.Canceled. If this request is still live, that
				// cancellation was not ours — loop and start (or join) a
				// fresh flight instead of failing on a neighbor's ctrl-C.
				if errors.Is(fl.err, context.Canceled) && ctx.Err() == nil {
					continue
				}
				return nil, "", fp, fl.err
			}
			if fl.fromDisk {
				return fl.camp, "disk", fp, nil
			}
			return fl.camp, "compute", fp, nil
		case <-ctx.Done():
			s.leave(fl)
			return nil, "", fp, ctx.Err()
		}
	}
}

// touch moves a live session to the most recently used end of s.order.
// The caller holds s.mu.
func (s *Server) touch(fp string) {
	for i, o := range s.order {
		if o == fp {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = fp
			return
		}
	}
}

// leave records one waiter's departure. The last waiter to abandon a flight
// that has not completed cancels it and removes it from the table, so a
// later request starts fresh instead of joining a doomed computation.
func (s *Server) leave(fl *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl.waiters--
	if fl.waiters > 0 {
		return
	}
	select {
	case <-fl.done:
		// Completed; finish already retired it.
	default:
		delete(s.flights, fl.fp)
		fl.cancel()
	}
}

// run executes the flight's computation and publishes the result. It runs as
// a method goroutine so all shared mutation happens under the server's lock
// (finish) or through the internally-synchronized progress log.
func (fl *flight) run(s *Server) {
	defer fl.cancel()
	fl.camp, fl.fromDisk, fl.err = s.compute(fl.ctx, fl.opts, s.store, fl.log.append)
	s.finish(fl)
}

// finish retires a completed flight: it leaves the flight table, a
// successful result joins the session cache (evicting the least recently
// used session beyond the cap),
// and the hit counters advance. done closes last, after the result fields
// are set, so waiters woken by it read consistent state.
func (s *Server) finish(fl *flight) {
	fl.log.close()
	s.mu.Lock()
	delete(s.flights, fl.fp)
	if fl.err == nil {
		if fl.fromDisk {
			s.diskHits.Add(1)
		} else {
			s.computations.Add(1)
		}
		s.sessions[fl.fp] = &session{camp: fl.camp, log: fl.log}
		s.order = append(s.order, fl.fp)
		for len(s.order) > sessionCap {
			delete(s.sessions, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.mu.Unlock()
	close(fl.done)
}

// ---- shutdown ---------------------------------------------------------

// Shutdown drains the server: new campaign requests are refused with 503
// while every in-flight computation runs to completion (so no accepted
// request's work is thrown away). If ctx expires first the remaining
// flights are canceled and their waiters see the cancellation error. The
// HTTP listener is the caller's to close — drain first, then
// http.Server.Shutdown, otherwise there is no listener left to serve the
// 503s from.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	fps := make([]string, 0, len(s.flights))
	for fp := range s.flights { //detlint:ignore maporder sorted below
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	pending := make([]*flight, 0, len(fps))
	for _, fp := range fps {
		pending = append(pending, s.flights[fp])
	}
	s.mu.Unlock()
	for i, fl := range pending {
		select {
		case <-fl.done:
		case <-ctx.Done():
			for _, rest := range pending[i:] {
				rest.cancel()
			}
			for _, rest := range pending[i:] {
				<-rest.done
			}
			return fmt.Errorf("server: drain deadline exceeded, %d campaign(s) canceled: %w",
				len(pending)-i, ctx.Err())
		}
	}
	return nil
}

// Stats is a statusz snapshot.
type Stats struct {
	// Computations counts campaigns that computed at least one study;
	// DiskHits campaigns whose every study loaded from the artifact store;
	// MemHits requests served from a live session. One campaign request
	// lands in exactly one bucket.
	Computations int64 `json:"computations"`
	DiskHits     int64 `json:"disk_hits"`
	MemHits      int64 `json:"mem_hits"`
	// InFlight lists running computations in fingerprint order.
	InFlight []FlightStatus `json:"in_flight"`
	// Sessions lists the memoized completed campaigns, least recently used
	// first.
	Sessions []string `json:"sessions"`
	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
}

// FlightStatus describes one in-flight computation.
type FlightStatus struct {
	Fingerprint string `json:"fingerprint"`
	Waiters     int    `json:"waiters"`
}

// Stats snapshots the server's counters and tables.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Computations: s.computations.Load(),
		DiskHits:     s.diskHits.Load(),
		MemHits:      s.memHits.Load(),
		InFlight:     []FlightStatus{},
		Sessions:     append([]string{}, s.order...),
		Draining:     s.draining,
	}
	fps := make([]string, 0, len(s.flights))
	for fp := range s.flights { //detlint:ignore maporder sorted below
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		st.InFlight = append(st.InFlight, FlightStatus{Fingerprint: fp, Waiters: s.flights[fp].waiters})
	}
	return st
}

// ---- request parsing --------------------------------------------------

// requestOptions resolves a request's query parameters to campaign options
// and an output format: `preset` picks the base, the shared optparse knobs
// lay over it, and `format` picks the encoder. Unknown parameters are
// errors — a typoed knob must not silently run the preset campaign — and so
// is a repeated one, which the CLI's flags would read as its last value.
func (s *Server) requestOptions(q url.Values) (rhvpp.Options, rhvpp.Format, error) {
	o := s.base
	f := rhvpp.FormatText
	keys := make([]string, 0, len(q))
	for k := range q { //detlint:ignore maporder sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if n := len(q[k]); n > 1 {
			return o, f, fmt.Errorf("query key %q given %d times (give each key once)", k, n)
		}
	}
	if p := q.Get("preset"); p != "" {
		var err error
		if o, err = rhvpp.PresetOptions(p); err != nil {
			return o, f, err
		}
	}
	var ov optparse.Overrides
	for _, k := range keys {
		if k == "format" || k == "preset" {
			continue
		}
		if err := ov.Set(k, q.Get(k)); err != nil {
			return o, f, err
		}
	}
	ov.Apply(&o)
	if v := q.Get("format"); v != "" {
		f = rhvpp.Format(v)
	}
	return o, f, nil
}

// contentType maps formats to response media types.
var contentType = map[rhvpp.Format]string{
	rhvpp.FormatText: "text/plain; charset=utf-8",
	rhvpp.FormatJSON: "application/json",
	rhvpp.FormatCSV:  "text/csv; charset=utf-8",
}

// ---- handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// catalogEntry is one row of GET /v1/experiments.
type catalogEntry struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Section string   `json:"section"`
	Studies []string `json:"studies"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	exps := rhvpp.Experiments()
	entries := make([]catalogEntry, 0, len(exps))
	for _, e := range exps {
		studies := make([]string, 0, len(e.Studies))
		for _, st := range e.Studies {
			studies = append(studies, string(st))
		}
		entries = append(entries, catalogEntry{ID: e.ID, Title: e.Title, Section: e.Section, Studies: studies})
	}
	writeJSON(w, entries)
}

// handleExperiment renders one experiment (or the full "all" stream) for the
// request's options. The body for the golden preset is byte-identical to the
// CLI's stdout for the same flags — the server and the CLI share every layer
// from options parsing to the report encoders.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id != "all" {
		if _, err := rhvpp.LookupExperiment(id); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	o, f, err := s.requestOptions(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := o.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := rhvpp.NewEncoder(f, io.Discard); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	camp, cacheState, fp, err := s.campaignFor(r.Context(), o)
	switch {
	case err == nil:
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case r.Context().Err() != nil:
		// The client left; there is nobody to answer.
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	// Render into a buffer so a mid-render failure can still produce a clean
	// 500 instead of a truncated 200.
	var buf bytes.Buffer
	ids := []string{id}
	if id == "all" {
		ids = ids[:0]
		for _, e := range rhvpp.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, eid := range ids {
		if id == "all" {
			fmt.Fprintf(&buf, "== %s ==\n", eid)
		}
		enc, err := rhvpp.NewEncoder(f, &buf)
		if err == nil {
			err = camp.Run(r.Context(), eid, enc)
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("experiment %s: %v", eid, err), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", contentType[f])
	w.Header().Set("X-Rhvpp-Fingerprint", fp)
	w.Header().Set("X-Rhvpp-Cache", cacheState)
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // client went away mid-body; nothing to clean up
	}
}

// handleProgress streams a computation's progress log as NDJSON: everything
// logged so far immediately, then each new event as it lands, ending when
// the computation completes. Completed sessions replay their full log.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	s.mu.Lock()
	var lg *progressLog
	if fl, ok := s.flights[fp]; ok {
		lg = fl.log
	} else if sess, ok := s.sessions[fp]; ok {
		lg = sess.log
	}
	s.mu.Unlock()
	if lg == nil {
		http.Error(w, fmt.Sprintf("rhvpp: no computation %q in flight or in memory", fp), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		lines, closed, wake := lg.since(next)
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
		}
		next += len(lines)
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeJSON writes v as indented JSON (stable, diff-friendly bodies).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return // client went away mid-body
	}
}

// ---- progress log -----------------------------------------------------

// progressLog accumulates a flight's NDJSON progress lines and wakes
// streaming readers as they land. Readers poll since(n) and block on the
// returned wake channel, which closes whenever a line is appended or the
// log closes — a broadcast without per-reader registration.
type progressLog struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	wake   chan struct{}
}

func newProgressLog() *progressLog {
	return &progressLog{wake: make(chan struct{})}
}

// append encodes one event onto the log. Appends after close are dropped —
// the flight has already published its result, so late events would never
// reach a reader anyway.
func (l *progressLog) append(ev rhvpp.ProgressEvent) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return // unreachable: ProgressEvent has no unmarshalable fields
	}
	raw = append(raw, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.lines = append(l.lines, raw)
	close(l.wake)
	l.wake = make(chan struct{})
}

// close seals the log and wakes all readers one final time.
func (l *progressLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
}

// since returns the lines at index from onward, whether the log is sealed,
// and the channel that will close on the next append or seal.
func (l *progressLog) since(from int) (lines [][]byte, closed bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from > len(l.lines) {
		from = len(l.lines)
	}
	return l.lines[from:], l.closed, l.wake
}
