package main

// The traced run. After a normal timed run against the daemon, a seeded
// slice of the same operations is replayed in-process twice: once bare and
// once with spans. Each operation goes through server.Handler().ServeHTTP
// and then, as direct calls in the order the handler makes them, through
// the layers below it; the direct answer must equal the handler's. The
// spans live here, around the calls into each layer, so the program runs
// unmodified; they are written out as Chrome trace JSON.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"prefcover"
	"prefcover/internal/graph"
	"prefcover/internal/jobs"
	"prefcover/internal/server"
	"prefcover/internal/solvecache"
	"prefcover/internal/store"
	"prefcover/internal/trace"
)

// Span names, one per layer boundary.
const (
	spanHandler  = "server.handler"
	spanStoreGet = "store.get"
	spanLookup   = "solvecache.lookup"
	spanDo       = "solvecache.do"
	spanSolve    = "greedy.solve"
	spanItemCov  = "cover.item_coverage"
	spanDecode   = "graph.decode"
	spanStorePut = "store.put"
)

// replayState is one in-process copy of the serving state: a server
// reached through its handler, and a registry plus cache of the
// benchmark's own that the direct calls use.
type replayState struct {
	srv     *server.Server
	handler http.Handler
	reg     *store.Registry
	cache   *solvecache.Cache
}

// newReplayState builds a server the way prefcoverd does with its
// defaults. Access logs are formatted as the daemon formats them and
// discarded.
func newReplayState() (*replayState, error) {
	srv, err := server.NewWithConfig(server.Config{
		Limits: server.Limits{MaxBodyBytes: 64 << 20},
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Jobs:   jobs.Options{Workers: 1},
	})
	if err != nil {
		return nil, err
	}
	st := &replayState{srv: srv, handler: srv.Handler(), cache: solvecache.New(solvecache.Options{})}
	st.reg, err = store.New(store.Options{OnInvalidate: func(_, hash string) { st.cache.InvalidateGraph(hash) }})
	if err != nil {
		srv.Close()
		return nil, err
	}
	return st, nil
}

// opRecord is what the replay measured for one operation.
type opRecord struct {
	kind      opKind
	setup     bool
	jsonBody  bool
	total     time.Duration // handler plus direct replay
	root      *trace.Span
	respBytes int
	gainEvals int64
	solveMB   float64
	decodeMB  float64
}

// layer is the summed duration of the root's children called name.
func (rec *opRecord) layer(name string) time.Duration {
	var d time.Duration
	for _, c := range rec.root.Children() {
		if c.Name() == name {
			d += c.Duration()
		}
	}
	return d
}

// solveTime is the solver time inside the cache fill span.
func (rec *opRecord) solveTime() time.Duration {
	var d time.Duration
	for _, c := range rec.root.Children() {
		if c.Name() == spanDo {
			for _, g := range c.Children() {
				d += g.Duration()
			}
		}
	}
	return d
}

// allocMB reads the process's cumulative heap allocation in MB.
func allocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// replay runs ops through two fresh replayStates in lockstep: a bare one,
// which measures only each operation's total, and one that records spans
// into tr. Which of the two runs an operation first alternates, so neither
// pays more of the process's warm-up; the difference of their totals is
// the tracing overhead.
func replay(ctx context.Context, p *plan, ops []op, nSetup int, tr *trace.Tracer) (bare, traced []opRecord, st *replayState, err error) {
	bareSt, err := newReplayState()
	if err != nil {
		return nil, nil, nil, err
	}
	defer bareSt.close()
	st, err = newReplayState()
	if err != nil {
		return nil, nil, nil, err
	}
	bare, traced = make([]opRecord, len(ops)), make([]opRecord, len(ops))
	for i, o := range ops {
		steps := []func() error{
			func() error { return bareSt.step(ctx, p, i, o, i < nSetup, nil, &bare[i]) },
			func() error { return st.step(ctx, p, i, o, i < nSetup, tr, &traced[i]) },
		}
		if i%2 == 1 {
			steps[0], steps[1] = steps[1], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				st.close()
				return nil, nil, nil, fmt.Errorf("replay op %d: %w", i, err)
			}
		}
	}
	return bare, traced, st, nil
}

// step runs o through the handler and the direct calls, recording spans
// into tr when it is not nil, and checks the two answers agree.
func (st *replayState) step(ctx context.Context, p *plan, i int, o op, setup bool, tr *trace.Tracer, rec *opRecord) error {
	rec.kind, rec.setup = o.kind, setup
	if tr != nil {
		rec.root = tr.Root(kindName(o.kind), strconv.Itoa(i))
	}
	t0 := time.Now()
	var resp *httptest.ResponseRecorder
	var check func(*httptest.ResponseRecorder) error
	var err error
	// Alternate which path runs first so neither always finds the graph
	// warm in the CPU caches.
	if i%2 == 0 {
		resp = st.serve(rec.root, p, o)
		check, err = st.direct(ctx, rec.root, p, o, rec)
	} else {
		check, err = st.direct(ctx, rec.root, p, o, rec)
		resp = st.serve(rec.root, p, o)
	}
	rec.total = time.Since(t0)
	rec.root.End()
	if err != nil {
		return err
	}
	if err := check(resp); err != nil {
		return fmt.Errorf("direct path disagrees with the handler: %w", err)
	}
	rec.respBytes = resp.Body.Len()
	return nil
}

func (st *replayState) close() { st.srv.Close() }

func kindName(k opKind) string {
	if k == opPut {
		return "put"
	}
	return "solve"
}

// serve runs o through the server's handler.
func (st *replayState) serve(root *trace.Span, p *plan, o op) *httptest.ResponseRecorder {
	body, contentType := o.body(p.uploads)
	req := httptest.NewRequest(o.method(), o.target(), bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	sp := root.Child(spanHandler)
	st.handler.ServeHTTP(w, req)
	sp.End()
	return w
}

// direct replays o as direct calls into the layers, in the handler's
// order, and returns a check of the handler's response against the
// direct answer.
func (st *replayState) direct(ctx context.Context, root *trace.Span, p *plan, o op, rec *opRecord) (func(*httptest.ResponseRecorder) error, error) {
	if o.kind == opPut {
		return st.directPut(root, p, o, rec)
	}
	sp := root.Child(spanStoreGet)
	e, ok := st.reg.Get(o.name)
	sp.End()
	if !ok {
		return nil, fmt.Errorf("graph %q not registered", o.name)
	}
	var pins []string
	if o.pin != "" {
		pins = []string{o.pin}
	}
	pinned, err := prefcover.LookupAll(e.Graph, pins)
	if err != nil {
		return nil, err
	}
	opts := serverOptions(o.k, pinned)
	key := solvecache.Key{GraphHash: e.Hash, Variant: variant, Pins: solvecache.PinsKey(pinned), Strategy: opts.StrategyName()}
	q := solvecache.Query{K: o.k}
	sp = root.Child(spanLookup)
	hit, found := st.cache.Lookup(key, q)
	sp.End()
	if !found {
		sp = root.Child(spanDo)
		hit, _, err = st.cache.Do(ctx, key, q, func() (*solvecache.Result, error) {
			gs := sp.Child(spanSolve)
			a0 := allocMB()
			sol, err := prefcover.SolveContext(ctx, e.Graph, opts)
			rec.solveMB = allocMB() - a0
			gs.End()
			if err != nil {
				return nil, err
			}
			rec.gainEvals = sol.GainEvals
			st.reg.RecordSolve(o.name)
			return solvecache.NewResult(sol, e.Graph.NumNodes(), len(pinned)), nil
		})
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	coverage := hit.Coverage
	if coverage == nil {
		sp = root.Child(spanItemCov)
		coverage, err = prefcover.PerItemCoverage(e.Graph, variant, hit.Order)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	want := expected{order: hit.Order, gains: hit.Gains, cover: hit.Cover, coverage: coverage}
	return func(w *httptest.ResponseRecorder) error {
		if w.Code != http.StatusOK {
			return fmt.Errorf("handler status %d: %.200s", w.Code, w.Body.Bytes())
		}
		b, err := decodeSolve(w.Body.Bytes())
		if err != nil {
			return err
		}
		return b.check(e.Graph, want)
	}, nil
}

func (st *replayState) directPut(root *trace.Span, p *plan, o op, rec *opRecord) (func(*httptest.ResponseRecorder) error, error) {
	u := p.uploads[o.content]
	rec.jsonBody = u.contentType == "application/json"
	sp := root.Child(spanDecode)
	a0 := allocMB()
	var g *graph.Graph
	var err error
	if rec.jsonBody {
		g, err = graph.ReadJSON(bytes.NewReader(u.body), graph.BuildOptions{})
	} else {
		g, err = graph.ReadBinary(bytes.NewReader(u.body))
	}
	rec.decodeMB = allocMB() - a0
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child(spanStorePut)
	e, _, err := st.reg.Put(o.name, g)
	sp.End()
	if err != nil {
		return nil, err
	}
	etag := `"` + e.Hash + `"`
	return func(w *httptest.ResponseRecorder) error {
		if w.Code != http.StatusOK && w.Code != http.StatusCreated {
			return fmt.Errorf("handler status %d: %.200s", w.Code, w.Body.Bytes())
		}
		if got := w.Header().Get("ETag"); got != etag {
			return fmt.Errorf("handler ETag %s, direct %s", got, etag)
		}
		return nil
	}, nil
}

// replayUploads is how many re-uploads of hit and miss the traced run
// replays after the solves, so their upload layers are not measured on
// the set-up upload alone.
const replayUploads = 3

// tracedRun measures the per-layer metrics.
func tracedRun(ctx context.Context, w workload, cfg config) (*outcome, error) {
	r, err := timedRun(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	p := r.plan
	ops := append(append([]op(nil), p.setup...), p.open[:min(p.replay, len(p.open))]...)
	ops = append(ops, p.upload[:min(len(p.upload), replayUploads)]...)
	tr := trace.New(len(ops))
	bare, recs, st, err := replay(ctx, p, ops, len(p.setup), tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	if err := writeChrome(path, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servebench: %d replayed operations traced to %s\n", len(ops), path)

	m := layerMetrics(recs, bare)
	m.set("server.wire_ms", r.wireMS(), "ms")
	// Cache figures of the whole daemon run, from its /metrics.
	hits := r.metrics[`prefcover_solvecache_requests_total{status="hit"}`]
	all := hits + r.metrics[`prefcover_solvecache_requests_total{status="miss"}`] + r.metrics[`prefcover_solvecache_requests_total{status="coalesced"}`]
	entries := r.metrics["prefcover_solvecache_entries"]
	m.set("solvecache.hit_ratio", hits/all, "ratio")
	m.set("solvecache.entries", entries, "count")
	m.set("solvecache.evictions", r.metrics["prefcover_solvecache_evictions_total"], "count")
	// The daemon does not export cache bytes: its entry count times the
	// mean entry size of the in-process replay's cache.
	var perEntry float64
	if n := st.cache.Len(); n > 0 {
		perEntry = float64(st.cache.Bytes()) / float64(n)
	}
	m.set("solvecache.mb", entries*perEntry/1e6, "MB")
	// The tails of the timed run. They are reported here, without a bound,
	// because on a shared 2-vCPU host a stretch of preemption moves them
	// by more than any bound a regression gate could use.
	m.set("solve_tail_ms", summarize(r.latencies(opSolve)).tail, "ms")
	m.set("put_tail_ms", summarize(r.latencies(opPut)).tail, "ms")
	m.set("loadgen.lag_ms", r.lagP99(), "ms")
	att, failed := r.counts()
	m.set("loadgen.cpu_ms_per_req", r.selfMS/float64(att), "ms")
	for _, prob := range r.problems {
		fmt.Fprintln(os.Stderr, "servebench:", prob)
	}
	r.logSummary()
	return &outcome{Correct: len(r.problems) == 0, Attempted: att + 2*len(ops), Failed: failed, Metrics: m}, nil
}

// layerMetrics turns the traced records into per-layer means: solve
// layers per timed solve, upload layers per PUT (set-up uploads
// included, since hit and miss upload only there).
func layerMetrics(recs, bare []opRecord) metricSet {
	var (
		nSolve, nPut, nJSON, nBin                        float64
		handler, glue, resp, get, lookup, fill, solve    float64
		itemCov, evals, solveMB                          float64
		putHandler, putGlue, decJSON, decBin, decMB, put float64
		tracedTotal, bareTotal                           float64
	)
	for i := range recs {
		rec := &recs[i]
		h := ms(rec.layer(spanHandler))
		if rec.kind == opPut {
			nPut++
			dec, sp := ms(rec.layer(spanDecode)), ms(rec.layer(spanStorePut))
			putHandler += h
			putGlue += h - dec - sp
			put += sp
			decMB += rec.decodeMB
			if rec.jsonBody {
				nJSON++
				decJSON += dec
			} else {
				nBin++
				decBin += dec
			}
			continue
		}
		if rec.setup {
			continue
		}
		nSolve++
		g, l, s := ms(rec.layer(spanStoreGet)), ms(rec.layer(spanLookup)), ms(rec.solveTime())
		f := ms(rec.layer(spanDo)) - s
		c := ms(rec.layer(spanItemCov))
		handler += h
		glue += h - g - l - f - s - c
		resp += float64(rec.respBytes) / 1e3
		get += g
		lookup += l
		fill += f
		solve += s
		itemCov += c
		evals += float64(rec.gainEvals)
		solveMB += rec.solveMB
		tracedTotal += ms(rec.total)
		bareTotal += ms(bare[i].total)
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	m := metricSet{}
	m.set("server.handler_ms", per(handler, nSolve), "ms")
	m.set("server.glue_ms", per(glue, nSolve), "ms")
	m.set("server.resp_kb", per(resp, nSolve), "KB")
	m.set("server.put_handler_ms", per(putHandler, nPut), "ms")
	m.set("server.put_glue_ms", per(putGlue, nPut), "ms")
	m.set("store.get_us", 1e3*per(get, nSolve), "us")
	m.set("solvecache.lookup_us", 1e3*per(lookup, nSolve), "us")
	m.set("solvecache.fill_us", 1e3*per(fill, nSolve), "us")
	m.set("greedy.solve_ms", per(solve, nSolve), "ms")
	m.set("greedy.gain_evals", evals, "count")
	m.set("greedy.alloc_mb", per(solveMB, nSolve), "MB")
	m.set("cover.item_coverage_ms", per(itemCov, nSolve), "ms")
	m.set("graph.decode_json_ms", per(decJSON, nJSON), "ms")
	m.set("graph.decode_binary_ms", per(decBin, nBin), "ms")
	m.set("graph.decode_alloc_mb", per(decMB, nPut), "MB")
	m.set("store.put_ms", per(put, nPut), "ms")
	m.set("trace.overhead_pct", 100*per(tracedTotal-bareTotal, bareTotal), "%")
	return m
}

func writeChrome(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
