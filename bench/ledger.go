package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"dualcube/internal/collective"
	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/serve"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// The ledger is the per-layer half of a traced run. Every probe times calls
// into one layer's public functions from outside it, on inputs drawn from
// the seed, and checks what the calls return; a probe never reaches inside
// a package. The ledger is the same whichever workload is traced, so every
// traced run reports every per-layer metric.

// ledger accumulates the per-layer metrics of one traced run.
type ledger struct {
	sz     sizes
	seed   int64
	budget time.Duration
	out    []metric
	fails  counter
}

// counter tallies probe calls and the ones whose output was wrong.
type counter struct {
	attempted, failed int
	errors            []string
}

func (c *counter) add(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errors) < 5 {
			c.errors = append(c.errors, err.Error())
		}
	}
}

func (c *counter) addRound(r *round) {
	for _, p := range r.Phases {
		c.attempted += p.Done + p.Failed
		c.failed += p.Failed
		for _, e := range p.Errors {
			if len(c.errors) < 5 {
				c.errors = append(c.errors, e)
			}
		}
	}
}

func (l *ledger) put(name, unit string, v float64, n int) {
	l.out = append(l.out, metric{Name: name, Unit: unit, Value: v, N: n})
}

// share is the part w of the ledger's time budget.
func (l *ledger) share(w float64) time.Duration {
	return time.Duration(w * float64(l.budget))
}

// repeat calls f until d has passed, at least minReps times, and returns
// the durations f reports in µs. f's errors count as failures.
func (l *ledger) repeat(d time.Duration, f func() (time.Duration, error)) []float64 {
	const minReps = 5
	var xs []float64
	for end := time.Now().Add(d); len(xs) < minReps || time.Now().Before(end); {
		dt, err := f()
		l.fails.add(err)
		if err == nil {
			xs = append(xs, us(dt))
		}
	}
	return xs
}

// p50 puts the median of xs under name, in µs.
func (l *ledger) p50(name string, xs []float64) float64 {
	v := median(xs)
	l.put(name, "us", v, len(xs))
	return v
}

// runLedger runs every probe within roughly budget and returns the metrics.
func runLedger(sz sizes, seed int64, budget time.Duration) ([]metric, counter, error) {
	l := &ledger{sz: sz, seed: seed, budget: budget}
	for _, probe := range []func() error{l.facade, l.compiled, l.kernels, l.lanePasses, l.servePhases, l.httpLayers, l.host} {
		if err := probe(); err != nil {
			return nil, l.fails, err
		}
	}
	return l.out, l.fails, nil
}

// facade times the dualcube facade calls of the three library workloads as
// spans, puts their medians next to the internal/seq floor on the same
// inputs, and reports the pinned cost-model counts.
func (l *ledger) facade() error {
	tr := newTracer()
	var scan *libScan
	var sorter *libSort
	var bulk *libBulk
	for _, p := range []struct {
		open func(sizes, int64) (system, time.Duration, error)
		w    float64
	}{{openLibScan, 0.10}, {openLibSort, 0.10}, {openLibBulk, 0.12}} {
		sys, _, err := p.open(l.sz, l.seed)
		if err != nil {
			return err
		}
		r := newRound()
		sys.measure(l.share(p.w), r, tr)
		sys.close()
		l.fails.addRound(r)
		switch c := sys.(*loop).callers[0].(type) {
		case *libScan:
			scan = c
		case *libSort:
			sorter = c
		case *libBulk:
			bulk = c
		}
	}
	spans := durations(tr.snapshot())
	facade := make(map[string]float64)
	for _, op := range []string{"prefix", "allreduce", "broadcast", "sort", "sortlarge", "prefixlarge", "alltoall"} {
		facade[op] = l.p50("dualcube."+op+"_us", spans["dualcube."+op])
	}

	floor := func(op string, sets int, f func(i int)) {
		i := 0
		xs := l.repeat(l.share(0.02), func() (time.Duration, error) {
			t0 := time.Now()
			f(i % sets)
			i++
			return time.Since(t0), nil
		})
		l.put("x_floor."+op, "ratio", facade[op]/median(xs), len(xs))
	}
	floor("prefix", len(scan.x.in), func(i int) { scanOf(scan.x.in[i]) })
	floor("sort", len(sorter.x.in), func(i int) { sortedAs(sorter.x.in[i], orderOf(i)) })
	floor("prefixlarge", len(bulk.x.scan), func(i int) { scanOf(bulk.x.scan[i]) })
	floor("alltoall", len(bulk.x.mat), func(i int) { transpose(bulk.x.mat[i]) })

	N := float64(len(bulk.x.mat[0]))
	l.put("collective.gbps_computed", "GB/s", 2*N*N*8/(facade["alltoall"]*1e3), 1)

	for _, s := range []struct {
		op string
		st machine.Stats
	}{{"prefix", scan.sp}, {"sort", sorter.st}} {
		l.put("stats.cycles."+s.op, "count", float64(s.st.Cycles), 1)
		l.put("stats.messages."+s.op, "count", float64(s.st.Messages), 1)
		l.put("stats.max_ops."+s.op, "count", float64(s.st.MaxOps), 1)
	}
	return nil
}

// compiled times the schedule-cache lookup every operation starts with.
func (l *ledger) compiled() error {
	d, err := topology.Shared(l.sz.scan)
	if err != nil {
		return err
	}
	const batch = 1000
	xs := l.repeat(l.share(0.01), func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := dcomm.Compiled(d, dcomm.OpPrefix); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	l.put("dcomm.compiled_ns", "ns", median(xs)*1e3/batch, len(xs)*batch)
	return nil
}

// laneOps are the operations with public lane kernels, in metric order.
var laneOps = []string{"prefix", "allreduce", "broadcast", "sort"}

var laneSched = map[string]dcomm.Op{
	"prefix":    dcomm.OpPrefix,
	"allreduce": dcomm.OpAllReduce,
	"broadcast": dcomm.OpBroadcast,
	"sort":      dcomm.OpDSort,
}

// laneRun is one kernel pass of a lane probe: the Execute wall time, the
// step clock's split of it by StepKind when the pass ran under the clock,
// the pass's Stats, and each lane's result in element order.
type laneRun struct {
	exec  time.Duration
	kinds [len(stepKinds)]time.Duration
	st    machine.Stats
	out   [][]int64
}

// runLanes runs op's public lane kernel at width k once on d, over input
// sets first, first+1, ... of x, through dcomm.Execute, and checks every
// lane against internal/seq. With clock set the kernel runs under the step
// clock.
func runLanes(op string, d *topology.DualCube, k int, x *serveInputs, first int, clock bool) (laneRun, error) {
	sch, err := dcomm.Compiled(d, laneSched[op])
	if err != nil {
		return laneRun{}, err
	}
	N := d.Nodes()
	set := func(l int) int { return (first + l) % len(x.in) }
	fill := func(v int64) []int64 {
		s := make([]int64, N)
		for i := range s {
			s[i] = v
		}
		return s
	}
	in := make([][]int64, k)
	out := make([][]int64, k)
	for l := range in {
		in[l] = x.in[set(l)]
		out[l] = make([]int64, N)
	}
	lanes := machine.NewLanes[int64](N, k)
	var kern machine.DirectKernel[[]int64]
	// collect reads the lanes' results after the pass; want is lane l's
	// internal/seq answer.
	collect := func() ([][]int64, error) { return out, nil }
	var want func(l int) []int64
	switch op {
	case "prefix":
		kern = prefix.NewLaneKernel(d, monoid.Sum[int64](), true, lanes, in, out)
		want = func(l int) []int64 { return x.scan[set(l)] }
	case "allreduce":
		kern = collective.NewLaneAllReduceKernel(d, monoid.Sum[int64](), lanes, in, out)
		want = func(l int) []int64 { return fill(x.sum[set(l)]) }
	case "broadcast":
		values := make([]int64, k)
		for l := range values {
			values[l] = x.sum[set(l)]
		}
		bk := collective.NewLaneBroadcastKernel(d, first%N, lanes, values)
		kern = bk
		collect = func() ([][]int64, error) {
			for u := 0; u < N; u++ {
				for l, v := range bk.Value(u) {
					out[l][u] = v
				}
			}
			return out, bk.Verify()
		}
		want = func(l int) []int64 { return fill(values[l]) }
	case "sort":
		ords := make([]sortnet.Order, k)
		for l := range ords {
			ords[l] = orderOf(set(l))
		}
		sk, err := sortnet.NewLaneSortKernel(d, lanes, in, less, ords)
		if err != nil {
			return laneRun{}, err
		}
		kern = sk
		collect = func() ([][]int64, error) {
			for l := range out {
				sk.Unload(l, out[l])
			}
			return out, nil
		}
		want = func(l int) []int64 {
			if ords[l] == sortnet.Descending {
				return x.desc[set(l)]
			}
			return x.asc[set(l)]
		}
	default:
		return laneRun{}, fmt.Errorf("no lane kernel for %s", op)
	}

	var r laneRun
	var c *stepClock[[]int64]
	if clock {
		c = newStepClock(kern, sch)
		kern = c
	}
	t0 := time.Now()
	r.st, err = dcomm.Execute(sch, machine.Config{}, kern)
	r.exec = time.Since(t0)
	if c != nil {
		c.stop()
		r.kinds = c.sum
	}
	if err != nil {
		return r, err
	}
	if r.out, err = collect(); err != nil {
		return r, err
	}
	for l := range r.out {
		if err := same(fmt.Sprintf("%s lane %d", op, l), r.out[l], want(l)); err != nil {
			return r, err
		}
	}
	return r, nil
}

// kernels times dcomm.Execute of the width-1 lane kernels on the lib-scan
// order, plainly and under the step clock, and derives the per-node-step
// cost.
func (l *ledger) kernels() error {
	d, err := topology.Shared(l.sz.scan)
	if err != nil {
		return err
	}
	x := genServeInputs(rng(l.seed, 6), l.sz.scan, l.sz.sets, true)
	exec := make(map[string]float64)
	for _, op := range laneOps {
		i := 0
		xs := l.repeat(l.share(0.04), func() (time.Duration, error) {
			r, err := runLanes(op, d, 1, x, i, false)
			i++
			if err == nil {
				err = pinned(op, l.sz.scan, 1, r.st)
			}
			return r.exec, err
		})
		exec[op] = l.p50("dcomm.execute_k1_us."+op, xs)
	}

	kinds := make(map[string][]float64)
	for _, op := range []string{"prefix", "sort"} {
		i := 0
		l.repeat(l.share(0.04), func() (time.Duration, error) {
			r, err := runLanes(op, d, 1, x, i, true)
			i++
			if err == nil {
				for kind, t := range r.kinds {
					if t > 0 {
						kinds[op+"/"+stepKinds[kind]] = append(kinds[op+"/"+stepKinds[kind]], us(t))
					}
				}
			}
			return r.exec, err
		})
	}
	// Prefix covers the cluster-technique kinds, sort the recursive one.
	for _, k := range []struct{ op, kind string }{
		{"prefix", "cluster_dim"}, {"prefix", "cross_hop"}, {"prefix", "local_combine"}, {"sort", "rec_dim"},
	} {
		l.p50("machine.pass_us."+k.kind, kinds[k.op+"/"+k.kind])
	}

	for _, s := range []struct{ name, op string }{{"scan", "prefix"}, {"sort", "sort"}} {
		sch, err := dcomm.Compiled(d, laneSched[s.op])
		if err != nil {
			return err
		}
		passes := float64(d.Nodes() * (len(sch.Steps) + 1))
		l.put("machine.node_step_ns."+s.name, "ns", exec[s.op]*1e3/passes, 1)
	}
	return nil
}

// laneWidths are the lane widths the serve lane-pass probes run at.
var laneWidths = []int{1, 8, 32}

// lanePasses times the serve-order lane kernels at widths 1, 8 and 32: the
// pass a batch of that many requests costs inside serve.
func (l *ledger) lanePasses() error {
	d, err := topology.Shared(l.sz.serve)
	if err != nil {
		return err
	}
	x := genServeInputs(rng(l.seed, 7), l.sz.serve, l.sz.sets, true)
	for _, op := range []string{"prefix", "allreduce", "sort"} {
		for _, k := range laneWidths {
			i := 0
			xs := l.repeat(l.share(0.01), func() (time.Duration, error) {
				r, err := runLanes(op, d, k, x, i, false)
				i++
				return r.exec, err
			})
			l.p50(fmt.Sprintf("serve.lane_pass_us.%s.k%d", op, k), xs)
		}
	}
	return nil
}

// lookup returns the value of the metric named name put so far.
func (l *ledger) lookup(name string) float64 {
	for _, m := range l.out {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// servePhases runs the serve-mix phases on a fresh server, scraping its
// metrics page for the deepest queue, and splits each phase's Submit time
// into the lane pass and everything around it.
func (l *ledger) servePhases() error {
	sys, _, err := openServeMix(l.sz, l.seed)
	if err != nil {
		return err
	}
	m := sys.(*serveMix)
	defer m.close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var depth float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				depth = math.Max(depth, scrape(m.s.Metrics(), "dcserve_queue_depth"))
			}
		}
	}()
	r := newRound()
	m.measure(l.share(0.15), r, nil)
	close(stop)
	wg.Wait()
	l.fails.addRound(r)

	for _, op := range []string{"prefix", "allreduce", "sort"} {
		xs := append(append([]float64(nil), r.phase("lo").Submit[op]...), r.phase("hi").Submit[op]...)
		l.p50("serve.submit_us."+op, xs)
	}
	for _, ph := range []string{"lo", "hi", "sat"} {
		p := r.phase(ph)
		mean := float64(p.Batch) / math.Max(1, float64(p.Done))
		l.put("serve.batch_mean."+ph, "lanes", mean, p.Done)
		k := laneWidths[0]
		for _, w := range laneWidths {
			if math.Abs(float64(w)-mean) < math.Abs(float64(k)-mean) {
				k = w
			}
		}
		sub := p.Submit["prefix"]
		pass := l.lookup(fmt.Sprintf("serve.lane_pass_us.prefix.k%d", k))
		l.put("serve.wait_us."+ph, "us", median(sub)-pass, len(sub))
	}
	l.put("serve.queue_depth_max", "count", depth, 1)
	late := sorted(append(append([]float64(nil), r.phase("lo").Late...), r.phase("hi").Late...))
	l.put("loadgen.late_p99_us", "us", pct(late, 0.99), len(late))
	return nil
}

// scrape returns the largest value of any sample of the gauge family on a
// Prometheus text page, such as the deepest dispatcher queue.
func scrape(page, family string) float64 {
	v := 0.0
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		f := strings.Fields(line)
		if x, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			v = math.Max(v, x)
		}
	}
	return v
}

// httpLayers splits one loopback HTTP prefix call: the client's JSON, the
// handler alone on a recorder (no socket), Submit alone, and what is left
// for the server's JSON and the network.
func (l *ledger) httpLayers() error {
	x := genServeInputs(rng(l.seed, 8), l.sz.http, l.sz.sets, false)
	h, err := newHTTPSystem(l.sz.http, x)
	if err != nil {
		return err
	}
	defer h.close()
	body := func(i int) []byte {
		// A Request of ints and a slice of int64 always encodes.
		b, _ := json.Marshal(serve.Request{N: h.n, Data: x.in[i%len(x.in)]})
		return b
	}
	reply, err := h.post(serve.OpPrefix, body(0))
	if err != nil {
		return err
	}

	i := 0
	clientJSON := l.repeat(l.share(0.025), func() (time.Duration, error) {
		t0 := time.Now()
		b, err := json.Marshal(serve.Request{N: h.n, Data: x.in[i%len(x.in)]})
		var resp serve.Response
		if err == nil {
			err = json.Unmarshal(reply, &resp)
		}
		dt := time.Since(t0)
		i++
		if err == nil && len(b) == 0 {
			err = fmt.Errorf("empty request body")
		}
		return dt, err
	})
	handler := serve.Handler(h.s)
	handlerUS := l.repeat(l.share(0.025), func() (time.Duration, error) {
		set := i % len(x.in)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/prefix", bytes.NewReader(body(set)))
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		dt := time.Since(t0)
		i++
		var resp serve.Response
		err := json.Unmarshal(rec.Body.Bytes(), &resp)
		if err == nil {
			err = x.check(serve.OpPrefix, false, set, resp.Data)
		}
		return dt, err
	})
	submit := l.repeat(l.share(0.025), func() (time.Duration, error) {
		set := i % len(x.in)
		t0 := time.Now()
		resp, err := h.s.Submit(&serve.Request{Op: serve.OpPrefix, N: h.n, Data: x.in[set]})
		dt := time.Since(t0)
		i++
		if err == nil {
			err = x.check(serve.OpPrefix, false, set, resp.Data)
		}
		return dt, err
	})
	c := &httpCaller{h: h}
	roundTrip := l.repeat(l.share(0.025), func() (time.Duration, error) {
		c.n = 0 // prefix only
		set := i % len(x.in)
		t0 := time.Now()
		err := c.call(set, nil, 0)
		dt := time.Since(t0)
		i++
		if err == nil {
			err = c.check(set)
		}
		return dt, err
	})
	cj := l.p50("http.client_json_us", clientJSON)
	hd := l.p50("http.handler_us", handlerUS)
	sb := l.p50("http.submit_us", submit)
	l.put("http.server_json_us", "us", hd-sb, len(handlerUS))
	l.put("http.net_us", "us", median(roundTrip)-hd-cj, len(roundTrip))
	return nil
}

// host puts the host's speed on a fixed loop that uses no repository code,
// so a shift between two sets of runs can be told apart from a code change.
func (l *ledger) host() error {
	xs := l.repeat(l.share(0.01), func() (time.Duration, error) { return hostFloor(), nil })
	l.p50("host.floor_us", xs)
	return nil
}

// hostFloor times one fixed integer loop.
func hostFloor() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	dt := time.Since(t0)
	if x == 0 {
		panic("xorshift reached zero") // keeps the loop from being removed
	}
	return dt
}
