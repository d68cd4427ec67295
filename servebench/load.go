package main

// Load generation over loopback HTTP: a fixed-count open loop that times
// each request from its due time, and a fixed-count closed loop of nproc
// clients. Bodies are hashed and never decoded while the clock runs;
// verification reads the retained bodies afterwards.

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opSolve opKind = iota
	opPut
)

// op is one request of a workload.
type op struct {
	kind opKind
	// name is the registry name solved or replaced.
	name string
	// k and pin parameterise a solve; pin is a label or "".
	k   int
	pin string
	// content indexes the workload's upload bodies (PUT only).
	content int
	// at is the due offset from the start of an open-loop phase.
	at time.Duration
	// keep is how many body bytes to retain for verification: 0 none,
	// -1 all.
	keep int
}

// result is what one request produced.
type result struct {
	// lat is timed from the caller's reference point (the due time in an
	// open loop), svc from the moment the request was sent.
	lat    time.Duration
	svc    time.Duration
	status int
	cache  string
	etag   string
	hash   uint64
	body   []byte
	err    error
}

func (r *result) ok() bool {
	return r.err == nil && (r.status == http.StatusOK || r.status == http.StatusCreated)
}

// upload is one PUT body with its media type.
type upload struct {
	body        []byte
	contentType string
}

// client is the workload's HTTP client. Its transport holds at most
// conns connections; open connections are counted, and the most ever
// open at once is kept, so the validity guard can prove the bound held.
// (The daemon closes a keep-alive connection idle for longer than its
// header timeout, so a run may dial more than conns times in all.)
type client struct {
	base    string
	http    *http.Client
	open    atomic.Int64
	maxOpen atomic.Int64
	seed    maphash.Seed
	uploads []upload
}

// countedConn decrements the client's open count once, on Close.
type countedConn struct {
	net.Conn
	c    *client
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

func newClient(base string, conns int, uploads []upload) *client {
	c := &client{base: base, seed: maphash.MakeSeed(), uploads: uploads}
	dialer := &net.Dialer{}
	c.http = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := c.open.Add(1)
			for m := c.maxOpen.Load(); n > m && !c.maxOpen.CompareAndSwap(m, n); m = c.maxOpen.Load() {
			}
			return &countedConn{Conn: conn, c: c}, nil
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// method, target and body are the HTTP request o makes; a solve names its
// graph by reference.
func (o op) method() string {
	if o.kind == opPut {
		return http.MethodPut
	}
	return http.MethodPost
}

func (o op) target() string {
	if o.kind == opPut {
		return "/v1/graphs/" + o.name
	}
	q := "/v1/solve?variant=" + variant.String() + "&k=" + strconv.Itoa(o.k)
	if o.pin != "" {
		q += "&pin=" + url.QueryEscape(o.pin)
	}
	return q
}

func (o op) body(uploads []upload) (body []byte, contentType string) {
	if o.kind == opPut {
		u := uploads[o.content]
		return u.body, u.contentType
	}
	return []byte(`{"graph_ref":"` + o.name + `"}`), "application/json"
}

// request builds the HTTP request for o.
func (c *client) request(ctx context.Context, o op) (*http.Request, error) {
	body, contentType := o.body(c.uploads)
	req, err := http.NewRequestWithContext(ctx, o.method(), c.base+o.target(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return req, nil
}

// do issues o and reads the whole body into buf (reused across calls).
// The latency is measured from from.
func (c *client) do(ctx context.Context, o op, from time.Time, buf *bytes.Buffer) result {
	req, err := c.request(ctx, o)
	if err != nil {
		return result{err: err}
	}
	sent := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return result{lat: time.Since(from), svc: time.Since(sent), err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := result{
		lat:    time.Since(from),
		svc:    time.Since(sent),
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Prefcover-Cache"),
		etag:   resp.Header.Get("ETag"),
		err:    err,
	}
	r.hash = maphash.Bytes(c.seed, buf.Bytes())
	if o.keep != 0 {
		n := buf.Len()
		if o.keep > 0 && o.keep < n {
			n = o.keep
		}
		r.body = append([]byte(nil), buf.Bytes()[:n]...)
	}
	if err == nil && !r.ok() {
		r.err = fmt.Errorf("%s: HTTP %d: %.200s", req.URL.Path, resp.StatusCode, buf.Bytes())
	}
	return r
}

// openLoop sends ops[i] at start+ops[i].at through workers concurrent
// connections, timing each from its due time. lag[i] is how late the
// dispatcher handed ops[i] to a worker.
func (c *client) openLoop(ctx context.Context, ops []op, workers int) (res []result, lag []time.Duration, wall time.Duration) {
	res = make([]result, len(ops))
	lag = make([]time.Duration, len(ops))
	// Sized to the whole schedule so the dispatcher never blocks on a
	// busy worker: a stalled server then shows as latency, not as lag.
	queue := make(chan int, len(ops))
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				res[i] = c.do(ctx, ops[i], start.Add(ops[i].at), &buf)
			}
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, lag, time.Since(start)
}

// closedLoop runs ops through clients concurrent callers, each sending
// its next op as soon as the previous one completes; latency is timed
// from the send.
func (c *client) closedLoop(ctx context.Context, ops []op, clients int) (res []result, wall time.Duration) {
	res = make([]result, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				res[i] = c.do(ctx, ops[i], time.Now(), &buf)
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// doSeq issues ops one after another (setup and verification fetches).
func (c *client) doSeq(ctx context.Context, ops []op) []result {
	out := make([]result, len(ops))
	var buf bytes.Buffer
	for i, o := range ops {
		out[i] = c.do(ctx, o, time.Now(), &buf)
	}
	return out
}
