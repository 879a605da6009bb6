package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"dualcube"
	"dualcube/internal/serve"
)

// serveInputs are the payloads of the serving workloads and their
// internal/seq answers.
type serveInputs struct {
	in, scan, asc, desc [][]int64
	sum                 []int64
}

func genServeInputs(r *rand.Rand, n, sets int, sorts bool) *serveInputs {
	nodes := 1 << (2*n - 1)
	x := &serveInputs{}
	for i := 0; i < sets; i++ {
		in := randVec(r, nodes, 0, 1<<16)
		x.in = append(x.in, in)
		x.scan = append(x.scan, scanOf(in))
		x.sum = append(x.sum, sumOf(in))
		if sorts {
			x.asc = append(x.asc, sortedAs(in, dualcube.Ascending))
			x.desc = append(x.desc, sortedAs(in, dualcube.Descending))
		}
	}
	return x
}

// check compares one serve response with the answer for input set i.
func (x *serveInputs) check(op serve.Op, desc bool, i int, data []int64) error {
	switch op {
	case serve.OpPrefix:
		return same("prefix", data, x.scan[i])
	case serve.OpAllReduce:
		return same("allreduce", data, x.sum[i:i+1])
	case serve.OpSort:
		if desc {
			return same("sort", data, x.desc[i])
		}
		return same("sort", data, x.asc[i])
	}
	return fmt.Errorf("no check for %s", op)
}

// ---- serve-mix ----

type serveMix struct {
	s      *serve.Server
	n      int
	x      *serveInputs
	seed   int64
	rounds int // measure calls so far; each draws a fresh arrival schedule
}

func openServeMix(sz sizes, seed int64) (system, time.Duration, error) {
	t0 := time.Now()
	x := genServeInputs(rng(seed, 4), sz.serve, sz.sets, true)
	gen := time.Since(t0)
	// The dcserve defaults: 1 shard, MaxBatch 32, 200µs window, queue 256.
	s, err := serve.New(serve.Config{Orders: []int{sz.serve}})
	if err != nil {
		return nil, gen, err
	}
	return &serveMix{s: s, n: sz.serve, x: x, seed: seed}, gen, nil
}

func (m *serveMix) close() { m.s.Close() }

func (m *serveMix) first() error {
	req := &serve.Request{Op: serve.OpPrefix, N: m.n, Data: m.x.in[0]}
	resp, err := m.s.Submit(req)
	if err != nil {
		return err
	}
	return m.x.check(req.Op, false, 0, resp.Data)
}

// request draws one request of the mix: 70% prefix, 20% allreduce, 10% sort
// in either direction, on a random input set.
func (m *serveMix) request(r *rand.Rand) (*serve.Request, int) {
	set := r.Intn(len(m.x.in))
	req := &serve.Request{N: m.n, Data: m.x.in[set]}
	switch p := r.Intn(10); {
	case p < 7:
		req.Op = serve.OpPrefix
	case p < 9:
		req.Op = serve.OpAllReduce
	default:
		req.Op = serve.OpSort
		req.Desc = r.Intn(2) == 1
	}
	return req, set
}

// measure runs the three phases for a third of d each: open loop at the lo
// and hi rates, then the closed loop.
func (m *serveMix) measure(d time.Duration, r *round, tr *tracer) {
	m.rounds++
	base := m.seed*7919 + int64(m.rounds)*104729
	m.openLoop(mixLoRate, d/3, r.phase("lo"), rand.New(rand.NewSource(base+1)), tr)
	m.openLoop(mixHiRate, d/3, r.phase("hi"), rand.New(rand.NewSource(base+2)), tr)
	m.closedLoop(mixInflight, d/3, r.phase("sat"), base+3, tr)
}

// openLoop sends Poisson arrivals at rate per second for d, each request in
// its own goroutine blocked in Submit. Latency runs from the request's due
// time, so a late generator or a stalled host is charged to the requests.
func (m *serveMix) openLoop(rate float64, d time.Duration, ph *phase, r *rand.Rand, tr *tracer) {
	start := time.Now()
	ph.begin(start)
	var wg sync.WaitGroup
	at := 0.0
	for {
		at += r.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			break
		}
		req, set := m.request(r)
		due := start.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		ph.addLate(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.submit(req, set, due, ph, tr)
		}()
	}
	wg.Wait()
	ph.addWall(time.Since(start))
}

// closedLoop keeps inflight requests outstanding for d.
func (m *serveMix) closedLoop(inflight int, d time.Duration, ph *phase, seed int64, tr *tracer) {
	start := time.Now()
	ph.begin(start)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for j := 0; j < inflight; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(j)))
			for time.Now().Before(deadline) {
				req, set := m.request(r)
				m.submit(req, set, time.Now(), ph, tr)
			}
		}()
	}
	wg.Wait()
	ph.addWall(time.Since(start))
}

func (m *serveMix) submit(req *serve.Request, set int, due time.Time, ph *phase, tr *tracer) {
	id := tr.begin("serve.submit."+req.Op.String(), 0)
	t0 := time.Now()
	resp, err := m.s.Submit(req)
	t1 := time.Now()
	tr.end(id)
	batch := 0
	if err == nil {
		batch = resp.Batch
		err = m.x.check(req.Op, req.Desc, set, resp.Data)
		ph.addSubmit(req.Op.String(), t1.Sub(t0))
	}
	ph.record(t1.Sub(due), batch, err)
}

// ---- http-d4 ----

// httpSystem is a serve.Handler behind a loopback httptest server, with a
// client limited to two keep-alive connections.
type httpSystem struct {
	s      *serve.Server
	ts     *httptest.Server
	client *http.Client
	n      int
	x      *serveInputs
}

func openHTTP(sz sizes, seed int64) (system, time.Duration, error) {
	t0 := time.Now()
	x := genServeInputs(rng(seed, 5), sz.http, sz.sets, false)
	gen := time.Since(t0)
	h, err := newHTTPSystem(sz.http, x)
	if err != nil {
		return nil, gen, err
	}
	return &loop{
		name:    "http-d4",
		callers: []caller{&httpCaller{h: h}, &httpCaller{h: h, n: 1}},
		sets:    sz.sets,
		stop:    h.close,
	}, gen, nil
}

func newHTTPSystem(n int, x *serveInputs) (*httpSystem, error) {
	s, err := serve.New(serve.Config{Orders: []int{n}})
	if err != nil {
		return nil, err
	}
	return &httpSystem{
		s:  s,
		ts: httptest.NewServer(serve.Handler(s)),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
		},
		n: n,
		x: x,
	}, nil
}

func (h *httpSystem) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
	h.s.Close()
}

// httpCaller is one client connection: it alternates /v1/prefix and
// /v1/allreduce, encoding the request and decoding the reply itself.
type httpCaller struct {
	h    *httpSystem
	n    int // calls made; its parity picks the operation
	op   serve.Op
	resp serve.Response
}

func (c *httpCaller) call(i int, tr *tracer, parent int64) error {
	c.op = serve.OpPrefix
	if c.n%2 == 1 {
		c.op = serve.OpAllReduce
	}
	c.n++
	id := tr.begin("http.encode", parent)
	body, err := json.Marshal(serve.Request{N: c.h.n, Data: c.h.x.in[i]})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("http.roundtrip", parent)
	raw, err := c.h.post(c.op, body)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("http.decode", parent)
	c.resp = serve.Response{}
	err = json.Unmarshal(raw, &c.resp)
	tr.end(id)
	return err
}

func (c *httpCaller) check(i int) error {
	return c.h.x.check(c.op, false, i, c.resp.Data)
}

// post sends one request body to the op's route and returns the reply body;
// any status but 200 is an error.
func (h *httpSystem) post(op serve.Op, body []byte) ([]byte, error) {
	resp, err := h.client.Post(h.ts.URL+"/v1/"+op.String(), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", op, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
