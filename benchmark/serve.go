package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/server"
)

// One serve-mixed operation is a client session: sessionLen requests sent
// back to back on one keep-alive connection. Each session holds 14 hot
// reads, 2 cold campaigns, 3 revisits and 1 catalog listing (70/10/15/5%),
// so every session costs about the same and a median over sessions does not
// swing with the draw. The seeded list holds serveSessions sessions, more
// than two clients complete in one run; smoke runs get smokeSessions.
const (
	sessionLen    = 20
	serveSessions = 200
	serveRequests = serveSessions * sessionLen
	smokeSessions = 4
)

var sessionKinds = func() []string {
	var ks []string
	for _, k := range []struct {
		kind string
		n    int
	}{{"hot", 14}, {"cold", 2}, {"revisit", 3}, {"catalog", 1}} {
		for i := 0; i < k.n; i++ {
			ks = append(ks, k.kind)
		}
	}
	return ks
}()

// request is one serve-mixed call: an experiment id in a format for the base
// campaign at a seed (Seed 0 keeps the base seed), or a catalog listing.
type request struct {
	Kind   string // hot, cold, revisit or catalog
	Seed   uint64
	ID     string
	Format rhvpp.Format
}

func (q request) path() string {
	if q.Kind == "catalog" {
		return "/v1/experiments"
	}
	v := url.Values{"format": {string(q.Format)}}
	if q.Seed != 0 {
		v.Set("seed", strconv.FormatUint(q.Seed, 10))
	}
	return "/v1/experiments/" + q.ID + "?" + v.Encode()
}

// requestMix is the seeded list of sessions the clients take in order.
type requestMix struct {
	sessions [][]request
	// hot are the seeds of the four hot campaigns set-up stores on disk.
	hot  []uint64
	next atomic.Int64
}

// newRequestMix draws n sessions. Hot reads go to 4 campaigns (the base and
// three seed variants), cold requests to campaigns never requested before,
// revisits to earlier cold ones. The session order of kinds is shuffled;
// ids (every experiment and "all") are dealt from a reshuffled deck so the
// expensive ones spread evenly; formats are uniform.
func newRequestMix(seed uint64, n int) *requestMix {
	r := rand.New(rand.NewPCG(seed, 0x7268767070))
	formats := rhvpp.Formats()
	used := map[uint64]bool{0: true}
	fresh := func() uint64 {
		for {
			if s := 1 + r.Uint64N(1<<32); !used[s] {
				used[s] = true
				return s
			}
		}
	}
	var deck []string
	deal := func() string {
		if len(deck) == 0 {
			deck = append(allIDs(), "all")
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		id := deck[0]
		deck = deck[1:]
		return id
	}
	mix := &requestMix{hot: []uint64{0, fresh(), fresh(), fresh()}}
	var cold []uint64
	for s := 0; s < n; s++ {
		kinds := append([]string(nil), sessionKinds...)
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		sess := make([]request, 0, len(kinds))
		for _, k := range kinds {
			if k == "catalog" {
				sess = append(sess, request{Kind: k})
				continue
			}
			q := request{Kind: k, ID: deal(), Format: formats[r.IntN(len(formats))]}
			switch {
			case k == "cold":
				q.Seed = fresh()
				cold = append(cold, q.Seed)
			case k == "revisit" && len(cold) > 0:
				q.Seed = cold[r.IntN(len(cold))]
			default: // hot, or a revisit before any cold campaign exists
				q.Kind, q.Seed = "hot", mix.hot[r.IntN(len(mix.hot))]
			}
			sess = append(sess, q)
		}
		mix.sessions = append(mix.sessions, sess)
	}
	return mix
}

// fixture is a server on a loopback listener over an artifact store in a
// directory of its own.
type fixture struct {
	base  rhvpp.Options
	dir   string
	store *rhvpp.ArtifactStore
	srv   *server.Server
	hs    *http.Server
	url   string
	done  chan error
}

// newFixture opens a store in a fresh temp dir and starts a server on it.
func newFixture(base rhvpp.Options) (*fixture, error) {
	dir, err := os.MkdirTemp("", "rhvpp-bench-store-*")
	if err != nil {
		return nil, err
	}
	f := &fixture{base: base, dir: dir}
	if f.store, err = rhvpp.OpenArtifactStore(dir); err == nil {
		err = f.start()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return f, nil
}

func (f *fixture) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv = server.New(server.Config{Base: f.base, Store: f.store})
	f.hs = &http.Server{Handler: f.srv.Handler()}
	f.url = "http://" + ln.Addr().String()
	f.done = make(chan error, 1)
	go func() { f.done <- f.hs.Serve(ln) }()
	return nil
}

// stop drains the server and closes its listener, keeping the store.
func (f *fixture) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if herr := f.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// restart replaces the server with a fresh one on the same store: nothing in
// memory, everything computed so far on disk.
func (f *fixture) restart() error {
	if err := f.stop(); err != nil {
		return err
	}
	return f.start()
}

func (f *fixture) close() error {
	err := f.stop()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// warmFixture computes the hot campaigns into a fresh store through a
// throwaway server, then starts the timed server on that store: warm on disk,
// cold in memory.
func warmFixture(ctx context.Context, base rhvpp.Options, hot []uint64) (*fixture, error) {
	f, err := newFixture(base)
	if err != nil {
		return nil, err
	}
	warm := server.New(server.Config{Base: base, Store: f.store}).Handler()
	for _, s := range hot {
		q := request{Kind: "hot", Seed: s, ID: "table1", Format: rhvpp.FormatText}
		rr := httptest.NewRecorder()
		warm.ServeHTTP(rr, httptest.NewRequestWithContext(ctx, http.MethodGet, q.path(), nil))
		if rr.Code != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("warming %s: status %d: %s", q.path(), rr.Code, rr.Body.Bytes())
		}
	}
	return f, nil
}

// outcome is one completed request as the client saw it.
type outcome struct {
	latency time.Duration
	// cache is the server's X-Rhvpp-Cache answer (mem, disk or compute), or
	// "catalog".
	cache string
}

// traffic is what the clients of one drive saw.
type traffic struct {
	sessions []time.Duration
	outs     []outcome
}

// drive runs the mix's next sessions from `clients` closed-loop clients,
// each on one keep-alive connection, until the list ends or `until` passes.
func (f *fixture) drive(ctx context.Context, mix *requestMix, clients int, until time.Time, rec *recorder, bc *bodyCheck) traffic {
	per := make([]traffic, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer cl.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(until) {
				i := int(mix.next.Add(1) - 1)
				if i >= len(mix.sessions) {
					return
				}
				s := time.Now()
				rec.do("session", 0, i+1, func(id int) error {
					for _, q := range mix.sessions[i] {
						per[c].outs = append(per[c].outs, f.send(ctx, cl, q, id, i+1, rec, bc))
					}
					return nil
				})
				per[c].sessions = append(per[c].sessions, time.Since(s))
			}
		}()
	}
	wg.Wait()
	var all traffic
	for _, p := range per {
		all.sessions = append(all.sessions, p.sessions...)
		all.outs = append(all.outs, p.outs...)
	}
	return all
}

// send performs one request inside a "request" span and verifies the reply.
func (f *fixture) send(ctx context.Context, cl *http.Client, q request, parent, trace int, rec *recorder, bc *bodyCheck) outcome {
	out := outcome{cache: "catalog"}
	var status int
	var fp string
	var body []byte
	s := time.Now()
	err := rec.do("request", parent, trace, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+q.path(), nil)
		if err != nil {
			return err
		}
		resp, err := cl.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status, fp = resp.StatusCode, resp.Header.Get("X-Rhvpp-Fingerprint")
		if q.Kind != "catalog" {
			out.cache = resp.Header.Get("X-Rhvpp-Cache")
		}
		body, err = io.ReadAll(resp.Body)
		return err
	})
	out.latency = time.Since(s)
	bc.verify(q, status, fp, body, err)
	return out
}

// bodyCheck verifies served bytes: a 200, the fingerprint of locally built
// options, one body per (fingerprint, id, format) whichever path served it,
// and the committed golden bytes for the base campaign's "all".
type bodyCheck struct {
	t       *tally
	base    rhvpp.Options
	goldens map[rhvpp.Format][]byte

	mu     sync.Mutex
	fps    map[uint64]string
	bodies map[string][sha256.Size]byte
}

func newBodyCheck(t *tally, base rhvpp.Options, goldens map[rhvpp.Format][]byte) *bodyCheck {
	return &bodyCheck{t: t, base: base, goldens: goldens, fps: make(map[uint64]string), bodies: make(map[string][sha256.Size]byte)}
}

func (b *bodyCheck) fingerprint(seed uint64) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fp, ok := b.fps[seed]; ok {
		return fp, nil
	}
	o := b.base
	if seed != 0 {
		o.Seed = seed
	}
	fp, err := rhvpp.OptionsFingerprint(o)
	b.fps[seed] = fp
	return fp, err
}

// same reports whether body matches the first body seen under key.
func (b *bodyCheck) same(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	first, ok := b.bodies[key]
	if !ok {
		b.bodies[key] = sum
		return true
	}
	return first == sum
}

func (b *bodyCheck) verify(q request, status int, fp string, body []byte, err error) {
	problem := func() string {
		if err != nil || status != http.StatusOK {
			return fmt.Sprintf("status %d: %v %.200s", status, err, body)
		}
		if q.Kind == "catalog" {
			if !b.same("catalog", body) {
				return "catalog body changed"
			}
			return ""
		}
		want, ferr := b.fingerprint(q.Seed)
		switch {
		case ferr != nil:
			return ferr.Error()
		case fp != want:
			return fmt.Sprintf("fingerprint %s, local options give %s", fp, want)
		case !b.same(want+"/"+q.ID+"/"+string(q.Format), body):
			return "body differs from an earlier reply for the same campaign, id and format"
		case q.Seed == 0 && q.ID == "all" && !bytes.Equal(body, b.goldens[q.Format]):
			return "base campaign differs from testdata/golden"
		}
		return ""
	}()
	b.t.check(problem == "", "GET %s: %s", q.path(), problem)
}

// serveTraffic drives the warm server with nproc clients, starting sessions
// while the budget lasts, and returns what the clients saw.
func serveTraffic(ctx context.Context, e *env, budget time.Duration, rec *recorder) (traffic, error) {
	tr := e.fix.drive(ctx, e.mix, nproc, time.Now().Add(budget), rec, e.bc)
	if len(tr.sessions) == 0 {
		return tr, fmt.Errorf("serve-mixed: the %d-session list ran out", len(e.mix.sessions))
	}
	return tr, ctx.Err()
}

func latencies(outs []outcome) []time.Duration {
	ds := make([]time.Duration, len(outs))
	for i, o := range outs {
		ds[i] = o.latency
	}
	return ds
}

// byCache splits request latencies (ms) by how the server answered.
func byCache(outs []outcome) map[string][]float64 {
	m := make(map[string][]float64)
	for _, o := range outs {
		m[o.cache] = append(m[o.cache], float64(o.latency)/float64(time.Millisecond))
	}
	return m
}

// reportTraffic prints the latency distribution of the run's requests to
// stderr, with every tail percentile that has enough samples beyond it.
func reportTraffic(outs []outcome) {
	split := byCache(outs)
	all := millis(latencies(outs))
	split["all"] = all
	split["hit"] = append(append([]float64(nil), split["mem"]...), split["disk"]...)
	for _, k := range []string{"all", "hit", "mem", "disk", "compute", "catalog"} {
		xs := split[k]
		line := fmt.Sprintf("serve-mixed %-7s n=%-5d p50=%.3fms", k, len(xs), median(xs))
		for _, p := range []float64{90, 95, 99} {
			if v, err := percentile(xs, p); err == nil {
				line += fmt.Sprintf(" p%g=%.3fms", p, v)
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
