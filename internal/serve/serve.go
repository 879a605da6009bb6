// Package serve is the batched request-coalescing serving front-end over
// the runtime layer: the subsystem that turns the library's single-shot
// calls into sustained concurrent throughput.
//
// A Server owns a pool of warmed runtime shards per dual-cube order — each
// shard fronts the process-wide cached topology and compiled schedules,
// plus its own reusable k-wide payload plane — and accepts concurrent
// prefix / allreduce / sort / broadcast requests (over HTTP+JSON through
// Handler, or in-process through Client). Compatible pending requests are
// coalesced into one batched kernel pass: a dispatcher per (op, order)
// collects up to MaxBatch requests within a Window of the first arrival
// and runs them as a single lane-widened DirectKernel over the compiled
// schedule (prefix.NewLaneKernel and friends), then demultiplexes the lane
// results back to the waiting callers. Because the direct executor runs
// finalized schedules as flat array kernels, batching is purely a layout
// change — the per-pass schedule walk, partner lookups and protocol checks
// are paid once for all lanes, which is the throughput win experiment E23
// measures.
//
// Admission control is a bounded queue per dispatcher: when it is full,
// Submit fails fast with ErrSaturated, which the HTTP layer maps to
// 429 + Retry-After. Shards degrade gracefully: a shard marked degraded
// serves through dcomm.RewriteFT fault-rewritten schedules with its fault
// plan armed (sort excepted — the recursive-technique schedule has no
// fault rewrite, so degraded shards refuse sort and the pool routes around
// them); a shard marked down leaves the rotation entirely. Per-op latency
// histograms (p50/p99), batch-occupancy and queue-depth gauges are exposed
// on /metrics next to /healthz.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Op names one operation the serving front-end accepts.
type Op uint8

const (
	// OpPrefix computes all prefix sums of the request payload.
	OpPrefix Op = iota
	// OpAllReduce combines the payload in element order and returns the
	// total.
	OpAllReduce
	// OpSort sorts the payload with D_sort.
	OpSort
	// OpBroadcast floods one value from a root node; requests batch only
	// with requests sharing the root.
	OpBroadcast
	opCount
)

// String returns the operation name used in URLs and metric labels.
func (op Op) String() string {
	switch op {
	case OpPrefix:
		return "prefix"
	case OpAllReduce:
		return "allreduce"
	case OpSort:
		return "sort"
	case OpBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ParseOp resolves an operation name from a URL or config string.
func ParseOp(s string) (Op, error) {
	for op := OpPrefix; op < opCount; op++ {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown operation %q", s)
}

// Request is one serving request. Data is the payload in element order
// (one element per node of D_n) for prefix, allreduce and sort; broadcast
// uses Root and Value instead.
type Request struct {
	Op    Op      `json:"op"`
	N     int     `json:"n"`
	Data  []int64 `json:"data,omitempty"`
	Desc  bool    `json:"desc,omitempty"`  // sort: descending order
	Root  int     `json:"root,omitempty"`  // broadcast: source node
	Value int64   `json:"value,omitempty"` // broadcast: flooded value
}

// Response is the result of one request, demultiplexed from its batch.
type Response struct {
	// Data is the result in element order: the prefix vector, the sorted
	// keys, the single all-reduce total, or the delivered broadcast value.
	Data []int64 `json:"data"`
	// Cycles is the simulated communication time of the pass that served
	// the request (shared by every request coalesced into it).
	Cycles int `json:"cycles"`
	// Batch is the pass's lane occupancy: how many requests were coalesced.
	Batch int `json:"batch"`
	// Shard identifies the shard that ran the pass.
	Shard int `json:"shard"`
	// Degraded reports that the pass ran over a fault-rewritten schedule.
	Degraded bool `json:"degraded,omitempty"`
}

// Config sizes a Server.
type Config struct {
	// Orders lists the dual-cube orders to serve; every shard and schedule
	// is warmed before New returns. Default: 4, 5, 6.
	Orders []int
	// Shards is the number of runtime shards per order; each shard runs at
	// most one batched pass at a time, so this bounds per-order
	// concurrency. Default 1.
	Shards int
	// MaxBatch is the lane-width ceiling of one batched pass; 1 disables
	// coalescing. Default 32.
	MaxBatch int
	// Window is how long a dispatcher holds the first pending request of a
	// batch open for more arrivals. Default 200µs.
	Window time.Duration
	// QueueCap is the bounded pending-queue capacity per (op, order)
	// dispatcher; a full queue rejects with ErrSaturated. Default 256.
	QueueCap int
}

func (c Config) withDefaults() Config {
	if len(c.Orders) == 0 {
		c.Orders = []int{4, 5, 6}
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Window <= 0 {
		c.Window = 200 * time.Microsecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	return c
}

// ErrSaturated is the admission-control rejection: the pending queue of the
// request's (op, order) dispatcher is full. The HTTP layer maps it to
// 429 + Retry-After; in-process callers should back off and retry.
var ErrSaturated = errors.New("serve: pending queue full, retry later")

// ErrUnavailable means no shard of the requested order can currently run
// the operation (all down, or all survivors degraded for an op with no
// degraded schedule). The HTTP layer maps it to 503.
var ErrUnavailable = errors.New("serve: no shard available for the operation")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server is closed")

// Server is the serving front-end. Create with New, serve HTTP with
// Handler, submit in-process with Client (or Submit directly), stop with
// Close.
type Server struct {
	cfg   Config
	pools map[int]*pool
	lines map[lineKey]*line
	met   *metrics

	// mu serializes Submit's enqueue against Close's channel close: Submit
	// holds the read side across its non-blocking send, so Close can never
	// close a queue mid-send.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

type lineKey struct {
	op Op
	n  int
}

// New builds a Server: every configured order's topology and schedules are
// warmed, shards and their payload planes allocated, and one dispatcher
// goroutine started per (op, order).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	seen := make(map[int]bool, len(cfg.Orders))
	orders := make([]int, 0, len(cfg.Orders))
	for _, n := range cfg.Orders {
		if !seen[n] {
			seen[n] = true
			orders = append(orders, n)
		}
	}
	sort.Ints(orders)
	cfg.Orders = orders

	s := &Server{
		cfg:   cfg,
		pools: make(map[int]*pool, len(orders)),
		lines: make(map[lineKey]*line, len(orders)*int(opCount)),
		met:   newMetrics(cfg.MaxBatch),
	}
	for _, n := range orders {
		p, err := newPool(n, cfg.Shards, cfg.MaxBatch)
		if err != nil {
			return nil, err
		}
		s.pools[n] = p
		for op := OpPrefix; op < opCount; op++ {
			l := &line{s: s, key: lineKey{op, n}, pool: p, ch: make(chan *pending, cfg.QueueCap)}
			s.lines[l.key] = l
			s.wg.Add(1)
			go l.run()
		}
	}
	return s, nil
}

// Orders returns the orders this server was configured to serve.
func (s *Server) Orders() []int { return append([]int(nil), s.cfg.Orders...) }

// Close stops admitting requests, lets every dispatcher drain and serve
// what is already queued, and waits for them to exit. Submit after Close
// returns ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, l := range s.lines {
		close(l.ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// validate rejects malformed requests before they reach a queue.
func (s *Server) validate(req *Request) error {
	if req.Op >= opCount {
		return fmt.Errorf("serve: unknown operation %s", req.Op)
	}
	p, ok := s.pools[req.N]
	if !ok {
		return fmt.Errorf("serve: order %d is not served (configured orders: %v)", req.N, s.cfg.Orders)
	}
	c := p.c
	switch req.Op {
	case OpBroadcast:
		if req.Root < 0 || req.Root >= c.Nodes() {
			return fmt.Errorf("serve: broadcast root %d outside 0..%d", req.Root, c.Nodes()-1)
		}
	default:
		if len(req.Data) != c.Nodes() {
			return fmt.Errorf("serve: %s on %s wants %d elements, got %d", req.Op, c.Name(), c.Nodes(), len(req.Data))
		}
	}
	return nil
}

// Submit runs one request through the batching pipeline and blocks until
// its pass completes. It is safe for arbitrary concurrent use; requests
// sharing an (op, order) line coalesce into batched passes.
func (s *Server) Submit(req *Request) (*Response, error) {
	if err := s.validate(req); err != nil {
		return nil, err
	}
	start := time.Now()
	p := &pending{req: req, done: make(chan outcome, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	l := s.lines[lineKey{req.Op, req.N}]
	select {
	case l.ch <- p:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.met.op(req.Op).rejected.Add(1)
		return nil, ErrSaturated
	}
	out := <-p.done
	if out.err == nil {
		s.met.op(req.Op).observe(time.Since(start))
	} else {
		s.met.op(req.Op).errors.Add(1)
	}
	return out.resp, out.err
}

// Metrics renders the Prometheus-style metrics page (see Handler's
// /metrics endpoint).
func (s *Server) Metrics() string { return s.met.render(s) }

// ShardStates reports, for order n, the state of every shard ("up",
// "degraded", "down"); it backs /healthz.
func (s *Server) ShardStates(n int) ([]string, error) {
	p, ok := s.pools[n]
	if !ok {
		return nil, fmt.Errorf("serve: order %d is not served", n)
	}
	return p.stateNames(), nil
}

// Healthy reports whether every configured order has at least one shard in
// rotation.
func (s *Server) Healthy() bool {
	for _, p := range s.pools {
		if p.upCount() == 0 {
			return false
		}
	}
	return true
}

// DegradeShard marks shard idx of order n degraded under f seeded random
// permanent link faults: its passes reroute onto dcomm.RewriteFT schedules
// with the plan armed. Sort has no fault rewrite, so a degraded shard
// refuses sort and the pool routes sort traffic to healthy shards.
func (s *Server) DegradeShard(n, idx, f int, seed int64) error {
	p, ok := s.pools[n]
	if !ok {
		return fmt.Errorf("serve: order %d is not served", n)
	}
	return p.degrade(idx, f, seed)
}

// DownShard removes shard idx of order n from rotation entirely.
func (s *Server) DownShard(n, idx int) error {
	p, ok := s.pools[n]
	if !ok {
		return fmt.Errorf("serve: order %d is not served", n)
	}
	return p.down(idx)
}

// RestoreShard returns shard idx of order n to healthy rotation on the
// fault-free schedules.
func (s *Server) RestoreShard(n, idx int) error {
	p, ok := s.pools[n]
	if !ok {
		return fmt.Errorf("serve: order %d is not served", n)
	}
	return p.restore(idx)
}
