package main

// The three workloads. Each is a plan: the upload bodies, the requests
// that make up set-up, a fixed-count open-loop schedule at a fixed rate,
// a fixed-count closed-loop sequence, for hit and miss a fixed-count
// re-upload phase, and the design share of prefix-cache hits the validity
// guard holds the open loop to.

import (
	"fmt"
	"math/rand"
	"time"
)

const (
	// bigNodes is the PE-shaped catalog of hit and miss.
	bigNodes = 200_000
	// ingestNodes is the catalog ingest re-uploads as JSON.
	ingestNodes = 20_000
	// kmax is the largest budget any workload asks for; set-up warms the
	// cache at it.
	kmax = 500
	// setups is how many fresh daemons each run sets up; setup_s is their
	// median and the last one serves the timed phases.
	setups = 5
)

type workload struct {
	name string
	why  string
	// build makes the plan from the seed; seconds sizes the open loop.
	build func(seed int64, seconds int) (*plan, error)
}

type plan struct {
	// cats[i] is the catalog uploads[i] encodes.
	cats    []*catalog
	uploads []upload
	setup   []op
	// upload is an open-loop phase of re-uploads run after closed.
	upload []op
	open   []op
	closed []op
	// limit is the latency an operation must meet to count as goodput.
	limit time.Duration
	// designHit is the share of open-loop solves that must be prefix-cache
	// hits; hitTol is the allowed distance from it.
	designHit, hitTol float64
	// missSample lists open-loop indexes of miss bodies re-solved
	// in-process during verification.
	missSample []int
	// replay is how many leading open-loop operations the traced run
	// replays in-process.
	replay int
}

var workloads = []workload{
	{
		name: "hit",
		why:  "200k-node catalog warmed at kmax, by-reference solves with k uniform in [1,kmax]: every solve is a prefix-cache hit, so the cost is the hit payload (per-item coverage plus JSON encode), not the solver",
		build: func(seed int64, seconds int) (*plan, error) {
			return bigPlan(seed, seconds, false)
		},
	},
	{
		name: "miss",
		why:  "same catalog, every solve pins a distinct item so each has a new cache key and runs the default solver: the solver dominates",
		build: func(seed int64, seconds int) (*plan, error) {
			return bigPlan(seed, seconds, true)
		},
	},
	{
		name:  "ingest",
		why:   "20k-node catalog re-uploaded as JSON under one name beside steady by-reference solves: JSON decode dominates PUTs, each PUT invalidates the cache, and it shows whether uploads stall reads",
		build: ingestPlan,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Rates and counts. The open-loop rates sit well below the knee measured
// on 2 vCPUs, so queueing does not amplify jitter; every phase runs a
// fixed number of operations.
const (
	hitRate    = 25.0 // solves/s
	hitClosed  = 450
	missRate   = 8.0
	missClosed = 160
	// hit and miss re-upload their unchanged catalog uploadN times at
	// uploadRate; the content hash stays the same, so the cache stays warm.
	uploadN      = 30
	uploadRate   = 2.5 // PUTs/s
	missSampleN  = 6
	ingestSolveR = 10.0 // solves/s
	ingestPutR   = 2.0  // PUTs/s
	// ingestClosedPutEvery puts one PUT in every this many closed-loop ops.
	ingestClosedPutEvery = 6
	ingestClosed         = 300
	// ingestReplay is the stretch of the ingest schedule the traced run
	// replays.
	ingestReplay = 4 * time.Second
)

// bigPlan is hit (pins false) or miss (pins true) on the 200k catalog.
func bigPlan(seed int64, seconds int, pins bool) (*plan, error) {
	cat, err := newCatalog(bigNodes, seed, kmax, false)
	if err != nil {
		return nil, err
	}
	const name = "pe"
	p := &plan{
		cats:    []*catalog{cat},
		uploads: []upload{{body: cat.binary, contentType: "application/octet-stream"}},
		setup: []op{
			{kind: opPut, name: name},
			{kind: opSolve, name: name, k: kmax},
		},
	}
	for i := 0; i < uploadN; i++ {
		p.upload = append(p.upload, op{kind: opPut, name: name, at: time.Duration(float64(i) / uploadRate * float64(time.Second))})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rate, nClosed := hitRate, hitClosed
	if pins {
		rate, nClosed = missRate, missClosed
		p.limit = 250 * time.Millisecond
		p.replay = 60
	} else {
		p.designHit = 1
		p.limit = 100 * time.Millisecond
		p.replay = 120
	}
	nOpen := int(rate * float64(seconds))
	var perm []int
	if pins {
		perm = rng.Perm(bigNodes)
	}
	// Budgets are uniform over [1,kmax], drawn without sampling noise: an
	// evenly spaced grid per round, shuffled by the seed, so every seed and
	// every round solves the same mix of budgets in a different order.
	openK, closedK := kRounds(rng, nOpen, openRounds), kRounds(rng, nClosed, closedRounds)
	seenK := make(map[int]bool)
	mk := func(i, k int) op {
		o := op{kind: opSolve, name: name, k: k}
		if pins {
			o.pin = labelFor(int32(perm[i]))
			o.keep = 256
		} else if !seenK[o.k] {
			seenK[o.k] = true
			o.keep = -1
		}
		return o
	}
	for i := 0; i < nOpen; i++ {
		o := mk(i, openK[i])
		o.at = time.Duration(float64(i) / rate * float64(time.Second))
		p.open = append(p.open, o)
	}
	for i := 0; i < nClosed; i++ {
		p.closed = append(p.closed, mk(nOpen+i, closedK[i]))
	}
	if pins {
		for _, i := range rng.Perm(nOpen)[:missSampleN] {
			p.open[i].keep = -1
			p.missSample = append(p.missSample, i)
		}
	}
	return p, nil
}

// kGrid returns n budgets evenly spaced over [1,kmax] in seeded order.
func kGrid(rng *rand.Rand, n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = 1 + (2*i+1)*kmax/(2*n)
	}
	rng.Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// kRounds returns budgets for n operations run in r rounds as split by
// rounds, each round its own grid.
func kRounds(rng *rand.Rand, n, r int) []int {
	var ks []int
	for i := 0; i < r; i++ {
		ks = append(ks, kGrid(rng, (i+1)*n/r-i*n/r)...)
	}
	return ks
}

// ingestPlan alternates two seeded contents of one name by JSON PUT while
// solves at kmax run beside them: the first solve after each PUT misses,
// the rest hit.
func ingestPlan(seed int64, seconds int) (*plan, error) {
	const name = "catalog"
	p := &plan{limit: time.Second}
	for i := int64(0); i < 2; i++ {
		cat, err := newCatalog(ingestNodes, seed+i, kmax, true)
		if err != nil {
			return nil, err
		}
		p.cats = append(p.cats, cat)
		p.uploads = append(p.uploads, upload{body: cat.json, contentType: "application/json"})
	}
	p.setup = []op{
		{kind: opPut, name: name},
		{kind: opSolve, name: name, k: kmax},
	}
	solve := op{kind: opSolve, name: name, k: kmax, keep: -1}
	content := 0
	nextPut := func() op {
		content = 1 - content
		return op{kind: opPut, name: name, content: content}
	}
	nSolves := int(ingestSolveR * float64(seconds))
	nPuts := int(ingestPutR * float64(seconds))
	// PUTs fall midway between two solves, so each inter-PUT gap holds
	// solves both before and after the replacement lands.
	si, pi := 0, 0
	for si < nSolves || pi < nPuts {
		ts := time.Duration(float64(si) / ingestSolveR * float64(time.Second))
		tp := time.Duration((float64(pi) + 0.25) / ingestPutR * float64(time.Second))
		if pi < nPuts && (si >= nSolves || tp < ts) {
			o := nextPut()
			o.at = tp
			p.open = append(p.open, o)
			pi++
			continue
		}
		o := solve
		o.at = ts
		p.open = append(p.open, o)
		si++
	}
	for _, o := range p.open {
		if o.at < ingestReplay {
			p.replay++
		}
	}
	p.designHit = 1 - float64(nPuts)/float64(nSolves)
	p.hitTol = 0.05
	for i := 0; i < ingestClosed; i++ {
		if i%ingestClosedPutEvery == ingestClosedPutEvery-1 {
			p.closed = append(p.closed, nextPut())
		} else {
			p.closed = append(p.closed, solve)
		}
	}
	return p, nil
}
