package main

// One timed run: set up fresh daemons, drive the workload's phases on the
// last one, read the daemon's CPU, peak RSS and /metrics, then verify
// every answer and the run's validity.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"
)

// phase is one fixed-count stretch of load and what it produced.
type phase struct {
	ops  []op
	res  []result
	lag  []time.Duration // open loop only
	wall time.Duration
}

func (ph *phase) add(ops []op, res []result, lag []time.Duration, wall time.Duration) {
	ph.ops = append(ph.ops, ops...)
	ph.res = append(ph.res, res...)
	ph.lag = append(ph.lag, lag...)
	ph.wall += wall
}

// Rounds per loop.
const (
	openRounds   = 4
	closedRounds = 5
)

// rounds splits ops into n consecutive runs of near-equal length.
func rounds(ops []op, n int) [][]op {
	var out [][]op
	for i := 0; i < n; i++ {
		lo, hi := i*len(ops)/n, (i+1)*len(ops)/n
		if hi > lo {
			out = append(out, ops[lo:hi])
		}
	}
	return out
}

// runResult is everything one timed run measured.
type runResult struct {
	plan   *plan
	setupS []float64
	// warm is the serving daemon's set-up warm-up solve.
	warm                    result
	upload, open, closed    phase
	cpuPerReq               []float64 // daemon CPU ms per completed request, per open-loop round
	goodputs                []float64 // per closed-loop round
	rssMB                   float64
	maxConns                int64
	selfMS                  float64 // this process's CPU over the timed phases
	metrics                 map[string]float64
	problems                []string // verification failures and validity violations
	inputS, verifyS, totalS float64
}

// lagBoundMS is the p99 dispatcher lateness above which an open loop did
// not send on schedule and the run is invalid.
const lagBoundMS = 20

// timedRun sets up fresh daemons, runs the phases on the last one, and
// verifies every answer.
func timedRun(ctx context.Context, w workload, cfg config) (*runResult, error) {
	start := time.Now()
	p, err := w.build(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("building inputs: %w", err)
	}
	r := &runResult{plan: p, inputS: time.Since(start).Seconds()}
	var d *daemon
	var c *client
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		d, err = startDaemon(cfg.daemon)
		if err != nil {
			return nil, err
		}
		c = newClient(d.base, cfg.conns, p.uploads)
		res := c.doSeq(ctx, p.setup)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		for j := range res {
			if !res[j].ok() {
				c.close()
				d.stop()
				return nil, fmt.Errorf("set-up request %d: %v", j, res[j].err)
			}
		}
		if err := verifyPuts(p, p.setup, res); err != nil {
			r.problems = append(r.problems, err.Error())
		}
		r.warm = res[len(res)-1]
		if i < setups-1 {
			c.close()
			d.stop()
		}
	}
	defer d.stop()
	defer c.close()

	drv0 := selfCPUMillis()
	// Both loops run in rounds of fixed counts. The open loop's rounds are
	// back to back on one schedule, and the daemon's CPU is read between
	// them, when nothing is in flight; the per-round figures are
	// summarised by their median, so one slow stretch of the machine moves
	// one round, not the result.
	for _, ops := range rounds(p.open, openRounds) {
		cpu0, err := d.cpuMillis()
		if err != nil {
			return nil, err
		}
		base := ops[0].at
		shifted := make([]op, len(ops))
		for i, o := range ops {
			o.at -= base
			shifted[i] = o
		}
		res, lag, wall := c.openLoop(ctx, shifted, cfg.conns)
		cpu1, err := d.cpuMillis()
		if err != nil {
			return nil, err
		}
		var done int
		for i := range res {
			if res[i].ok() {
				done++
			}
		}
		r.cpuPerReq = append(r.cpuPerReq, (cpu1-cpu0)/float64(max(done, 1)))
		r.open.add(ops, res, lag, wall)
	}
	for _, ops := range rounds(p.closed, closedRounds) {
		res, wall := c.closedLoop(ctx, ops, cfg.conns)
		var good int
		for i := range res {
			if res[i].ok() && res[i].lat <= p.limit {
				good++
			}
		}
		r.goodputs = append(r.goodputs, float64(good)/wall.Seconds())
		r.closed.add(ops, res, nil, wall)
	}
	// Peak RSS of serving, read before the re-upload phase: a re-upload
	// briefly holds the old and the new copy of the catalog, and where the
	// collector happens to run during it would decide the peak.
	if r.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	res, lag, wall := c.openLoop(ctx, p.upload, cfg.conns)
	r.upload.add(p.upload, res, lag, wall)
	r.selfMS = selfCPUMillis() - drv0
	r.maxConns = c.maxOpen.Load()
	side := newClient(d.base, 1, nil)
	r.metrics, err = d.scrapeMetrics(ctx, side.http)
	side.close()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r.verify(ctx, w.name, cfg.conns)
	r.verifyS = time.Since(t0).Seconds()
	r.totalS = time.Since(start).Seconds()
	return r, nil
}

func (r *runResult) phases() []*phase { return []*phase{&r.open, &r.closed, &r.upload} }

// verify runs the correctness checks and the validity guard, recording
// every violation.
func (r *runResult) verify(ctx context.Context, name string, conns int) {
	p := r.plan
	fail := func(err error) {
		if err != nil {
			r.problems = append(r.problems, err.Error())
		}
	}
	var ops []op
	var res []result
	for _, ph := range r.phases() {
		ops = append(ops, ph.ops...)
		res = append(res, ph.res...)
	}
	for i := range res {
		if !res[i].ok() {
			fail(fmt.Errorf("request failed: %v", res[i].err))
			break
		}
	}
	fail(verifyPuts(p, ops, res))
	switch name {
	case "hit":
		fail(verifyHits(p, ops, res))
	case "miss":
		fail(verifyMisses(ctx, p, ops, res))
	case "ingest":
		fail(verifyIngest(p, ops, res))
	}
	// Validity guard: the run measured what the workload claims only if
	// the cache behaved as designed, the open loops sent on time, and the
	// connection bound held.
	if share, ok := r.hitShare(); ok && (share < p.designHit-p.hitTol || share > p.designHit+p.hitTol) {
		fail(fmt.Errorf("invalid run: open-loop cache hit share %.3f, designed %.3f±%.3f", share, p.designHit, p.hitTol))
	}
	if lag := r.lagP99(); lag > lagBoundMS {
		fail(fmt.Errorf("invalid run: open-loop lag p99 %.2f ms exceeds %d ms", lag, lagBoundMS))
	}
	if r.maxConns > int64(conns) {
		fail(fmt.Errorf("invalid run: %d connections open at once, bound %d", r.maxConns, conns))
	}
}

// hitShare is the share of open-loop solves the daemon answered from its
// prefix cache (X-Prefcover-Cache: hit).
func (r *runResult) hitShare() (float64, bool) {
	var hits, solves int
	for i, o := range r.open.ops {
		if o.kind != opSolve {
			continue
		}
		solves++
		if r.open.res[i].cache == "hit" {
			hits++
		}
	}
	if solves == 0 {
		return 0, false
	}
	return float64(hits) / float64(solves), true
}

// lagP99 is the dispatcher lateness of both open loops at p99, in ms.
func (r *runResult) lagP99() float64 {
	var s []float64
	for _, ph := range []*phase{&r.open, &r.upload} {
		for _, d := range ph.lag {
			s = append(s, ms(d))
		}
	}
	sort.Float64s(s)
	return quantile(s, 0.99)
}

// latencies are the open-loop latencies of one operation kind, timed
// from their due times.
func (r *runResult) latencies(kind opKind) []time.Duration {
	var out []time.Duration
	for _, ph := range []*phase{&r.open, &r.upload} {
		for i, o := range ph.ops {
			if o.kind == kind {
				out = append(out, ph.res[i].lat)
			}
		}
	}
	return out
}

func (r *runResult) counts() (attempted, failed int) {
	for _, ph := range r.phases() {
		for i := range ph.res {
			attempted++
			if !ph.res[i].ok() {
				failed++
			}
		}
	}
	return attempted, failed
}

// wireMS is the mean client-side solve latency, timed from the send,
// minus the daemon's own mean /v1/solve handling time from its request
// duration histogram; both cover the same requests.
func (r *runResult) wireMS() float64 {
	sum, n := ms(r.warm.svc), 1.0
	for _, ph := range r.phases() {
		for i, o := range ph.ops {
			if o.kind == opSolve {
				sum += ms(ph.res[i].svc)
				n++
			}
		}
	}
	const series = `prefcover_http_request_duration_seconds_%s{endpoint="/v1/solve"}`
	srvSum := r.metrics[fmt.Sprintf(series, "sum")]
	srvN := r.metrics[fmt.Sprintf(series, "count")]
	if srvN == 0 {
		return 0
	}
	return sum/n - 1e3*srvSum/srvN
}

// endToEnd computes the end-to-end metrics.
func (r *runResult) endToEnd() metricSet {
	m := metricSet{}
	m.set("setup_s", median(append([]float64(nil), r.setupS...)), "s")
	m.set("solve_p50_ms", summarize(r.latencies(opSolve)).p50, "ms")
	m.set("put_p50_ms", summarize(r.latencies(opPut)).p50, "ms")
	// Goodput counts the closed-loop operations that succeeded within the
	// workload's latency limit, per second of the round.
	m.set("goodput_rps", median(append([]float64(nil), r.goodputs...)), "1/s")
	m.set("cpu_ms_per_req", median(append([]float64(nil), r.cpuPerReq...)), "ms")
	m.set("rss_peak_mb", r.rssMB, "MB")
	return m
}

func (r *runResult) outcome() *outcome {
	att, failed := r.counts()
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "servebench:", p)
	}
	r.logSummary()
	return &outcome{Correct: len(r.problems) == 0, Attempted: att, Failed: failed, Metrics: r.endToEnd()}
}

// logSummary writes the sample counts, the percentiles the tails were
// read at, and the phase timings to standard error.
func (r *runResult) logSummary() {
	solves := summarize(r.latencies(opSolve))
	puts := summarize(r.latencies(opPut))
	share, _ := r.hitShare()
	fmt.Fprintf(os.Stderr, "servebench: solves n=%d p50=%.2fms tail=p%.2f %.2fms; puts n=%d p50=%.1fms tail=p%.2f %.1fms; hit share %.3f, lag p99 %.2fms, conns %d\n",
		solves.n, solves.p50, solves.tailPct, solves.tail, puts.n, puts.p50, puts.tailPct, puts.tail, share, r.lagP99(), r.maxConns)
	fmt.Fprintf(os.Stderr, "servebench: inputs %.1fs, setups %.3v, upload %.1fs, open %.1fs, closed %d ops %.2fs, verify %.1fs, total %.1fs\n",
		r.inputS, r.setupS, r.upload.wall.Seconds(), r.open.wall.Seconds(), len(r.closed.ops), r.closed.wall.Seconds(), r.verifyS, r.totalS)
}
