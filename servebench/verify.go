package main

// Verification runs after the timed phases. It decodes the retained
// bodies and compares them with answers computed in-process, and checks
// every other body by hash against a verified one.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"prefcover"
	"prefcover/internal/graph"
)

// solveBody is the /v1/solve response.
type solveBody struct {
	Variant  string    `json:"variant"`
	K        int       `json:"k"`
	Cover    float64   `json:"cover"`
	Reached  bool      `json:"reached"`
	Order    []string  `json:"order"`
	Gains    []float64 `json:"gains"`
	Coverage []float64 `json:"-"`
}

// expected is the in-process answer a solve must return.
type expected struct {
	order    []int32
	gains    []float64
	cover    float64
	coverage []float64
}

// prefixAnswer is the answer at budget k served from cat's reference
// solve: its length-k prefix, with per-item coverage recomputed for a
// shorter prefix exactly as a prefix-cache hit does.
func prefixAnswer(cat *catalog, k int) (expected, error) {
	e := expected{order: cat.ref.Order[:k], gains: cat.ref.Gains[:k], cover: cat.refCover[k]}
	if k == len(cat.ref.Order) {
		e.coverage = cat.ref.Coverage
		return e, nil
	}
	var err error
	e.coverage, err = prefcover.PerItemCoverage(cat.g, variant, e.order)
	return e, err
}

// pinnedAnswer solves cat in-process with pin forced first.
func pinnedAnswer(ctx context.Context, cat *catalog, k int, pin string) (expected, error) {
	v, ok := cat.g.Lookup(pin)
	if !ok {
		return expected{}, fmt.Errorf("pin %q not in catalog", pin)
	}
	sol, err := prefcover.SolveContext(ctx, cat.g, serverOptions(k, []int32{v}))
	if err != nil {
		return expected{}, err
	}
	return expected{order: sol.Order, gains: sol.Gains, cover: sol.PrefixCover()[len(sol.Order)], coverage: sol.Coverage}, nil
}

// check compares a decoded body with want.
func (b *solveBody) check(g *graph.Graph, want expected) error {
	if b.Variant != variant.String() || b.K != len(want.order) || !b.Reached {
		return fmt.Errorf("header mismatch: variant %q k %d reached %v, want k %d", b.Variant, b.K, b.Reached, len(want.order))
	}
	if len(b.Order) != len(want.order) || len(b.Gains) != len(want.gains) {
		return fmt.Errorf("length mismatch: order %d gains %d, want %d", len(b.Order), len(b.Gains), len(want.order))
	}
	for i, v := range want.order {
		if b.Order[i] != g.Label(v) {
			return fmt.Errorf("order[%d] = %q, want %q", i, b.Order[i], g.Label(v))
		}
		if b.Gains[i] != want.gains[i] {
			return fmt.Errorf("gains[%d] = %v, want %v", i, b.Gains[i], want.gains[i])
		}
	}
	if b.Cover != want.cover {
		return fmt.Errorf("cover %v, want %v", b.Cover, want.cover)
	}
	if len(b.Coverage) != len(want.coverage) {
		return fmt.Errorf("coverage length %d, want %d", len(b.Coverage), len(want.coverage))
	}
	for i, c := range want.coverage {
		if b.Coverage[i] != c && !(math.IsNaN(c) && math.IsNaN(b.Coverage[i])) {
			return fmt.Errorf("coverage[%d] = %v, want %v", i, b.Coverage[i], c)
		}
	}
	return nil
}

// decodeSolve decodes a /v1/solve body. The per-item coverage array
// (one number per catalog item) is parsed by hand: encoding/json's
// reflective path takes several times longer on it.
func decodeSolve(body []byte) (*solveBody, error) {
	var w struct {
		solveBody
		Coverage json.RawMessage `json:"coverage"`
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("decoding solve body: %w", err)
	}
	b := w.solveBody
	raw := bytes.TrimSpace(w.Coverage)
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return nil, fmt.Errorf("decoding solve body: coverage is not an array")
	}
	raw = raw[1 : len(raw)-1]
	b.Coverage = make([]float64, 0, bytes.Count(raw, []byte{','})+1)
	for len(raw) > 0 {
		tok := raw
		if i := bytes.IndexByte(raw, ','); i >= 0 {
			tok, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		if len(tok) == 1 && tok[0] == '0' {
			b.Coverage = append(b.Coverage, 0)
			continue
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("decoding solve body: coverage: %w", err)
		}
		b.Coverage = append(b.Coverage, v)
	}
	return &b, nil
}

// verifyPuts checks every PUT succeeded and returned the ETag of its
// content's canonical binary encoding.
func verifyPuts(p *plan, ops []op, res []result) error {
	for i, o := range ops {
		if o.kind != opPut {
			continue
		}
		if res[i].etag != p.cats[o.content].etag {
			return fmt.Errorf("PUT %d: ETag %s, want %s", i, res[i].etag, p.cats[o.content].etag)
		}
	}
	return nil
}

// verifyHits checks hit bodies: each retained body (one per k) is decoded
// and compared with the reference prefix, and every other body for that
// k must hash to the same value.
func verifyHits(p *plan, ops []op, res []result) error {
	byK := make(map[int]uint64)
	var kept []int
	for i, o := range ops {
		if o.kind == opSolve && res[i].body != nil {
			byK[o.k] = res[i].hash
			kept = append(kept, i)
		}
	}
	err := parallel(len(kept), func(j int) error {
		i := kept[j]
		b, err := decodeSolve(res[i].body)
		if err != nil {
			return err
		}
		want, err := prefixAnswer(p.cats[0], ops[i].k)
		if err != nil {
			return err
		}
		if err := b.check(p.cats[0].g, want); err != nil {
			return fmt.Errorf("hit k=%d: %w", ops[i].k, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, o := range ops {
		if o.kind != opSolve {
			continue
		}
		h, ok := byK[o.k]
		if !ok {
			return fmt.Errorf("hit k=%d: no verified body", o.k)
		}
		if res[i].hash != h {
			return fmt.Errorf("hit k=%d: body differs from the verified one", o.k)
		}
	}
	return nil
}

// parallel runs check(0..n-1) on one goroutine per CPU and returns the
// first error.
func parallel(n int, check func(int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				stop := first != nil
				mu.Unlock()
				if j >= n || stop {
					return
				}
				if err := check(j); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// verifyMisses checks that every miss body's order starts with its pin
// and re-solves the sampled ones in-process.
func verifyMisses(ctx context.Context, p *plan, ops []op, res []result) error {
	for i, o := range ops {
		if o.kind != opSolve {
			continue
		}
		prefix := []byte(`"order":["` + o.pin + `"`)
		if !bytes.Contains(res[i].body, prefix) {
			return fmt.Errorf("miss %d: order does not start with pin %q", i, o.pin)
		}
	}
	for _, i := range p.missSample {
		o := ops[i]
		b, err := decodeSolve(res[i].body)
		if err != nil {
			return err
		}
		want, err := pinnedAnswer(ctx, p.cats[0], o.k, o.pin)
		if err != nil {
			return err
		}
		if err := b.check(p.cats[0].g, want); err != nil {
			return fmt.Errorf("miss pin=%s k=%d: %w", o.pin, o.k, err)
		}
	}
	return nil
}

// verifyIngest checks every solve body equals the kmax answer of one of
// the two contents; a body is decoded once per distinct hash.
func verifyIngest(p *plan, ops []op, res []result) error {
	var want [2]expected
	for c := range want {
		var err error
		if want[c], err = prefixAnswer(p.cats[c], kmax); err != nil {
			return err
		}
	}
	good := make(map[uint64]bool)
	for i, o := range ops {
		if o.kind != opSolve || good[res[i].hash] {
			continue
		}
		b, err := decodeSolve(res[i].body)
		if err != nil {
			return err
		}
		err0 := b.check(p.cats[0].g, want[0])
		if err0 != nil {
			if err1 := b.check(p.cats[1].g, want[1]); err1 != nil {
				return fmt.Errorf("ingest solve %d matches neither content: %v; %v", i, err0, err1)
			}
		}
		good[res[i].hash] = true
	}
	return nil
}
