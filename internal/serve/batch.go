package serve

import (
	"time"

	"dualcube/internal/collective"
	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
)

// This file is the coalescing heart of the front-end. One dispatcher
// goroutine per (op, order) line drains its bounded queue into batches: the
// first pending request opens a batch, the dispatcher keeps collecting
// until MaxBatch requests are in hand or Window has elapsed since the
// opener arrived, then the whole group runs as a single lane-widened
// kernel pass over one leased shard and every caller gets its lane's
// result. Broadcast is the one op with a compatibility constraint — the
// flood's roles depend on the root, so a collected batch is partitioned
// into one pass per distinct root.

// pending is one queued request and its completion channel.
type pending struct {
	req  *Request
	done chan outcome
}

type outcome struct {
	resp *Response
	err  error
}

// line is one (op, order) dispatcher: a bounded queue and the goroutine
// draining it.
type line struct {
	s    *Server
	key  lineKey
	pool *pool
	ch   chan *pending
}

// run is the dispatcher loop. It exits when the server closes the queue,
// after serving whatever was already admitted.
func (l *line) run() {
	defer l.s.wg.Done()
	for p := range l.ch {
		batch := l.collect(p)
		l.dispatch(batch)
	}
}

// collect gathers a batch: opener first, then up to MaxBatch-1 more
// requests arriving within Window of the opener. A full batch returns
// immediately — under sustained load the window timer never fires and the
// dispatcher runs back-to-back full passes.
func (l *line) collect(opener *pending) []*pending {
	batch := []*pending{opener}
	max := l.s.cfg.MaxBatch
	if max <= 1 {
		return batch
	}
	timer := time.NewTimer(l.s.cfg.Window)
	defer timer.Stop()
	for len(batch) < max {
		select {
		case p, ok := <-l.ch:
			if !ok {
				// Server closing: run what we have; run() drains the rest.
				return batch
			}
			batch = append(batch, p)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// dispatch runs a collected batch, splitting broadcast groups by root.
func (l *line) dispatch(batch []*pending) {
	if l.key.op != OpBroadcast {
		resps, err := l.runBatch(batch)
		l.finish(batch, resps, err)
		return
	}
	// Broadcast roles depend on the root: coalesce per distinct root,
	// preserving arrival order within each group.
	groups := make(map[int][]*pending)
	var roots []int
	for _, p := range batch {
		if _, ok := groups[p.req.Root]; !ok {
			roots = append(roots, p.req.Root)
		}
		groups[p.req.Root] = append(groups[p.req.Root], p)
	}
	for _, root := range roots {
		g := groups[root]
		resps, err := l.runBatch(g)
		l.finish(g, resps, err)
	}
}

// finish demultiplexes a pass outcome to every caller in the group.
func (l *line) finish(group []*pending, resps []*Response, err error) {
	if err != nil {
		for _, p := range group {
			p.done <- outcome{err: err}
		}
		return
	}
	for i, p := range group {
		p.done <- outcome{resp: resps[i]}
	}
}

// runBatch leases a shard and runs the group as one lane-widened kernel
// pass over the shard's schedule (fault-rewritten with the plan armed when
// the shard is degraded).
func (l *line) runBatch(group []*pending) ([]*Response, error) {
	lease, err := l.pool.acquire(serveOps[l.key.op])
	if err != nil {
		return nil, err
	}
	defer l.pool.release(lease)

	k := len(group)
	l.s.met.op(l.key.op).occupancy.observe(k)
	cfg := machine.Config{Faults: lease.spec}
	c := l.pool.c

	var out [][]int64
	var st machine.Stats
	switch l.key.op {
	case OpPrefix:
		in := make([][]int64, k)
		out = make([][]int64, k)
		for i, p := range group {
			in[i] = p.req.Data
			out[i] = make([]int64, c.Nodes())
		}
		kern := prefix.NewLaneKernel(c, monoid.Sum[int64](), true, lease.sh.lanes, in, out)
		st, err = dcomm.Execute(lease.sched, cfg, kern)
	case OpAllReduce:
		in := make([][]int64, k)
		out = make([][]int64, k)
		for i, p := range group {
			in[i] = p.req.Data
			out[i] = make([]int64, c.Nodes())
		}
		kern := collective.NewLaneAllReduceKernel(c, monoid.Sum[int64](), lease.sh.lanes, in, out)
		st, err = dcomm.Execute(lease.sched, cfg, kern)
		if err == nil {
			// Every node holds the same total; the response is that one value.
			for i := range out {
				out[i] = out[i][:1]
			}
		}
	case OpSort:
		keys := make([][]int64, k)
		ords := make([]sortnet.Order, k)
		for i, p := range group {
			keys[i] = p.req.Data
			if p.req.Desc {
				ords[i] = sortnet.Descending
			} else {
				ords[i] = sortnet.Ascending
			}
		}
		var kern *sortnet.LaneSortKernel[int64]
		kern, err = sortnet.NewLaneSortKernel(c, lease.sh.lanes, keys,
			func(a, b int64) bool { return a < b }, ords)
		if err != nil {
			return nil, err
		}
		st, err = dcomm.Execute(lease.sched, cfg, kern)
		if err == nil {
			out = make([][]int64, k)
			for i := range out {
				out[i] = kern.Unload(i, make([]int64, c.Nodes()))
			}
		}
	case OpBroadcast:
		values := make([]int64, k)
		for i, p := range group {
			values[i] = p.req.Value
		}
		kern := collective.NewLaneBroadcastKernel(c, group[0].req.Root, lease.sh.lanes, values)
		st, err = dcomm.Execute(lease.sched, cfg, kern)
		if err == nil {
			err = kern.Verify()
		}
		if err == nil {
			out = make([][]int64, k)
			delivered := kern.Value(0) // all nodes agree; node 0's view
			for i := range out {
				out[i] = []int64{delivered[i]}
			}
		}
	}
	if err != nil {
		return nil, err
	}

	resps := make([]*Response, k)
	for i := range resps {
		resps[i] = &Response{
			Data:     out[i],
			Cycles:   st.Cycles,
			Batch:    k,
			Shard:    lease.sh.idx,
			Degraded: lease.degraded,
		}
	}
	return resps, nil
}
