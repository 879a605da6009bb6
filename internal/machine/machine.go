// Package machine runs compiled communication schedules (schedule.go): an
// operation is a finalized Schedule plus a DirectKernel, executed either by
// the direct kernel executor (direct.go), the default, or by the engine,
// the synchronous message-passing multicomputer that the paper's cost
// model assumes: one process per node of an interconnection network, links
// as bidirectional FIFO channels, and a global clock. On the engine every
// node walks the same schedule, calling the kernel at each step; a barrier
// advances the global clock.
//
// # Communication model
//
// Per clock cycle a node may send at most one message (on one of its links)
// and receive the messages pending on at most two of its links — the
// "bidirectional-channel, 1-port" model of the paper's theorems. The second
// receive exists because the paper's three-time-unit compare-and-exchange
// step (Section 6) has the relay node accept its partner's value on a
// cluster link and a foreign value on its cross-edge in the same cycle;
// with full-duplex links both arrive simultaneously. Algorithms that stick
// to one receive per cycle (everything in Section 3) simply never use it.
//
// Messages become visible to receivers in the same cycle they are sent
// (sends happen before the barrier, receives after) and are buffered in
// FIFO order per directed link, so a value sent in cycle t may be consumed
// in any cycle >= t. A receive on an empty link, a send to a non-neighbor,
// or a link buffer overflow aborts the whole run with a descriptive error —
// the machine is also a protocol checker for the algorithms above it.
//
// # Execution
//
// The engine is a stepped worker-pool scheduler: W ≈ GOMAXPROCS workers
// each own a contiguous shard of nodes and advance them cycle-by-cycle for
// the whole run. Each node's walk of the schedule runs as a coroutine
// (iter.Pull) that parks at every clock boundary, so resuming a node is a direct stack switch
// with no Go-scheduler involvement, no per-node goroutine wakeup, and no
// N-party lock contention. Node coroutines are created once and persist
// across runs of the same engine (parking between runs), so repeated runs
// pay no per-node setup. Workers synchronize once per cycle through a
// sense-reversing barrier over W parties (not N), whose leader performs the
// per-cycle accounting and detects desynchronized programs
// deterministically. Message and operation counters are kept
// per-node/per-worker and merged once at run end — there are no shared
// atomics on the hot path, and with a single worker the whole simulation is
// lock-free straight-line code.
//
// Because the leader sees every broken lockstep, the watchdog
// (Config.Timeout) only has runaway lockstep programs left to end: nodes
// that keep stepping together forever. A node that blocked outside the
// machine's primitives would wedge its shard, since a shard runs its nodes'
// cycle segments one after another; Engine.Run accepts only a schedule and
// a kernel, so the one program a node coroutine runs is the package's own
// interpreter.
//
// The direct kernel executor (direct.go) is the second path, and not a
// simulator at all: it runs a finalized Schedule as array kernels over flat
// per-node state — no coroutines, no per-cycle barrier, one worker join per
// schedule step — and reproduces the engine's Stats exactly. Operations use
// it by default (see DirectEligible); the engine remains the reference
// semantics, the oracle the direct executor is tested against.
//
// # Cost-model invariants
//
// The engine counts clock cycles (communication time), cycles in which at
// least one message was sent, total messages (= hops, since every send
// traverses one link), and per-node computation rounds reported by the
// kernels through DirectCtx.Ops. The maximum per-node operation count is the
// parallel computation time the paper's theorems bound. The engine keeps
// these measures exactly: Cycles is the number of barrier rounds,
// CommCycles counts rounds whose preceding send phase carried at least one
// message, Messages is the sum of per-node send counts, and MaxOps/TotalOps
// aggregate the per-node operation accounts. Scheduling order inside a
// cycle is deterministic (shard order), so repeated runs produce identical
// results bit-for-bit.
//
// # Link representation
//
// Links are single-producer single-consumer ring buffers in one flat
// allocation, indexed by a precomputed CSR adjacency table: for every
// directed edge the engine stores the reverse-edge slot (inSlot), so sends
// and receives resolve a neighbor to its link in O(log degree) via binary
// search over the sorted neighbor row, and never search the peer's
// adjacency list.
package machine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dualcube/internal/topology"
)

// noNode marks an absent peer in the low-level step call.
const noNode = -1

// errAborted is the error a node program unwinds with when the run was
// failed elsewhere (another node's protocol error, a desynchronized program
// or the watchdog); Engine.Run reports the failure that caused it.
var errAborted = errors.New("machine: run aborted")

// Sched selects the execution backend of a run.
type Sched uint8

const (
	// SchedDefault is the zero Config's choice: every operation runs on the
	// direct executor (DirectEligible).
	SchedDefault Sched = iota
	// SchedWorkerPool runs every operation on the worker-pool engine, which
	// interprets the same schedule with the same kernel: the reference
	// oracle the direct executor is tested against.
	SchedWorkerPool
)

func (s Sched) String() string {
	if s == SchedWorkerPool {
		return "worker-pool"
	}
	return "default"
}

// scaledTimeout is the built-in watchdog default: a base of one minute plus
// 30ms per node, so the ceiling grows with the machine instead of starving
// large-n runs (the original fixed 60s default could be exceeded spuriously
// by big bitonic sorts under instrumentation).
func scaledTimeout(n int) time.Duration {
	return 60*time.Second + time.Duration(n)*30*time.Millisecond
}

// Config tunes an Engine.
type Config struct {
	// LinkCapacity is the per-directed-link buffer depth. The paper's
	// algorithms need at most 2 in-flight messages per link; the default of
	// 4 leaves headroom while still catching runaway protocols.
	LinkCapacity int
	// Timeout is the engine's watchdog: it aborts a run still stepping
	// after this long, a lockstep program that never ends (the barrier
	// leader already catches every desynchronized one). Zero means 60s plus
	// 30ms per node.
	Timeout time.Duration
	// Sched selects the execution backend: SchedDefault runs every
	// operation on the direct executor, SchedWorkerPool on the engine.
	Sched Sched
	// Workers is the worker-pool size W, and the shard count of the direct
	// executor's passes. Zero means GOMAXPROCS; both clamp W to the node
	// count.
	Workers int
	// Faults arms a fault specification for every run: the listed links are
	// permanently down (see FaultSpec). nil means a fault-free run. The spec
	// is compared by pointer when engines are recycled, so reuse one
	// *FaultSpec value per plan.
	Faults *FaultSpec
}

// withDefaults resolves zero Config fields for a machine of n nodes. The
// engine has one scheduler, so Sched normalizes to SchedWorkerPool, which
// also keeps the engine free list keyed on one value.
func (c Config) withDefaults(n int) Config {
	if c.LinkCapacity <= 0 {
		c.LinkCapacity = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = scaledTimeout(n)
	}
	c.Sched = SchedWorkerPool
	c.Workers = workerCount(c.Workers, n)
	return c
}

// workerCount resolves a Config's Workers for n nodes: zero means
// GOMAXPROCS, and the result lies in 1..n.
func workerCount(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// Stats reports the cost of one run in the paper's measures.
type Stats struct {
	Nodes      int        // number of nodes that ran
	Cycles     int        // total clock cycles (communication time incl. idle cycles)
	CommCycles int        // cycles in which at least one message was sent
	Messages   int64      // total messages = total hops
	MaxOps     int        // max per-node computation rounds = parallel computation time
	TotalOps   int64      // sum of computation rounds over all nodes
	Faults     FaultStats // fault-plan figures; zero when no plan is armed
}

// Add returns the combined cost of two phases of a composite algorithm that
// ran on the same machine: cycles, messages and operation rounds accumulate,
// while the node count carries through unchanged. A zero Stats value is the
// identity. Add panics if the phases report different non-zero node counts —
// two machine sizes cannot be meaningfully combined (and bitwise tricks on
// the counts, as an earlier samplesort revision attempted, silently corrupt
// the statistics).
func (a Stats) Add(b Stats) Stats {
	nodes := a.Nodes
	if nodes == 0 {
		nodes = b.Nodes
	} else if b.Nodes != 0 && b.Nodes != nodes {
		//dcvet:allow abortpanic -- combining mismatched machines is a caller bug; Add is a value method with no error channel
		panic(fmt.Sprintf("machine: Stats.Add combining phases of different machines (%d vs %d nodes)", a.Nodes, b.Nodes))
	}
	return Stats{
		Nodes:      nodes,
		Cycles:     a.Cycles + b.Cycles,
		CommCycles: a.CommCycles + b.CommCycles,
		Messages:   a.Messages + b.Messages,
		MaxOps:     a.MaxOps + b.MaxOps,
		TotalOps:   a.TotalOps + b.TotalOps,
		Faults:     a.Faults.add(b.Faults),
	}
}

// roundState is the worker-barrier leader's verdict for one clock cycle.
type roundState uint8

const (
	roundRun   roundState = iota // all nodes still stepping: keep going
	roundDone                    // every node finished: stop cleanly
	roundAbort                   // failure recorded or desync detected: drain
)

// engineState is the part of an engine that node programs (through their
// ctx) and pool workers touch. It is deliberately separate from the
// user-facing Engine handle: persistent node coroutines keep engineState
// reachable from their parked stacks, and keeping the handle out of that
// reference chain lets the runtime collect a dropped handle and run its
// teardown (which unwinds those coroutines). Nothing in engineState may
// ever point back at the Engine.
type engineState[T any] struct {
	cfg Config
	n   int

	// Precomputed CSR adjacency and per-edge index tables. Directed edge
	// slot s = offs[u]+i carries messages u -> nbrs[s]; inSlot[s] is the
	// slot of the reverse edge nbrs[s] -> u, so receives resolve their link
	// without touching the peer's adjacency row.
	offs   []int32
	nbrs   []int32
	inSlot []int32

	// SPSC ring buffers, one per directed edge slot, in a single flat
	// allocation. Cursors grow monotonically (uint32 wraparound is fine);
	// slot s occupies buf[s*ringSize : (s+1)*ringSize].
	ringCap  uint32 // logical capacity (cfg.LinkCapacity)
	ringSize uint32 // physical size: LinkCapacity rounded up to a power of 2
	ringMask uint32
	buf      []T
	heads    []uint32 // consumer cursors, written by the receiving node only
	tails    []uint32 // producer cursors, written by the sending node only

	// atomicLinks selects atomic ring-cursor access. Required whenever link
	// endpoints can run on different OS threads (a worker pool with W > 1);
	// a single-worker pool runs the whole machine on one goroutine and uses
	// plain loads/stores.
	atomicLinks bool

	nodes []ctx[T] // per-node contexts, reused across runs

	// fx is the compiled form of the armed fault spec, nil when the run is
	// fault-free — the send and receive paths check only this one pointer.
	fx *armedFaults

	cycles     int                      // barrier rounds completed (leader-written)
	commCycles int                      // rounds whose send phase carried traffic
	onSend     func(c *ctx[T], dst int) // optional per-run send hook (recording)
	prog       func(c *ctx[T])          // current run's program; nil between runs

	// Worker-pool scheduler state.
	workers []poolWorker
	wbar    *senseBarrier
	state   roundState

	failMu   sync.Mutex
	failed   atomic.Bool
	firstErr error
}

// engineKey identifies a reusable engine in the free list: element type,
// topology identity (name, node and edge counts — the repo's topologies are
// canonical by name), and the fully resolved configuration.
type engineKey struct {
	typ   reflect.Type
	name  string
	nodes int
	edges int
	cfg   Config
}

// freeEngines holds released engines for reuse by New, keyed by engineKey.
// Values are *engineStack. Constructing an engine costs O(N · degree)
// allocation (adjacency tables, link rings, node contexts, and on the pool
// scheduler one coroutine per node) — significant relative to a short run,
// so the algorithm layers return their engines here instead of discarding
// them.
var freeEngines sync.Map

type engineStack struct {
	mu sync.Mutex
	s  []any
}

// maxFreeEngines bounds each free-list stack so pathological churn over
// many distinct machines cannot pin unbounded memory.
const maxFreeEngines = 4

// Engine is a synchronous multicomputer over a fixed topology. An Engine is
// reusable (Run may be called repeatedly) but not concurrently.
type Engine[T any] struct {
	*engineState[T]

	topo     topology.Topology
	key      engineKey
	released bool

	// runners holds the persistent per-node coroutines of the worker-pool
	// scheduler, created lazily on the first run and parked between runs.
	// The holder never references the Engine, so the teardown finalizer
	// (which stops any parked coroutines of a dropped engine) does not keep
	// the handle alive.
	runners *runnerSet
}

// runnerSet is the indirection the teardown finalizer captures.
type runnerSet struct {
	rs []nodeRunner
}

// New builds an engine over t, or reports an error if t is not a symmetric
// simple graph (every directed edge must have a reverse edge so links can be
// full-duplex). Table construction is O(N · degree · log degree).
//
// If a previously Released engine matches (same element type, topology
// identity and configuration), it is recycled instead of rebuilt.
func New[T any](t topology.Topology, cfg Config) (*Engine[T], error) {
	n := t.Nodes()
	cfg = cfg.withDefaults(n)

	edges := 0
	for u := 0; u < n; u++ {
		edges += t.Degree(u)
	}
	key := engineKey{typ: reflect.TypeFor[T](), name: t.Name(), nodes: n, edges: edges, cfg: cfg}
	if v, ok := freeEngines.Load(key); ok {
		st := v.(*engineStack)
		st.mu.Lock()
		var recycled *Engine[T]
		if k := len(st.s); k > 0 {
			recycled = st.s[k-1].(*Engine[T])
			st.s = st.s[:k-1]
		}
		st.mu.Unlock()
		if recycled != nil {
			recycled.topo = t
			recycled.released = false
			return recycled, nil
		}
	}

	s := &engineState[T]{cfg: cfg, n: n}
	s.offs = make([]int32, n+1)
	for u := 0; u < n; u++ {
		s.offs[u+1] = s.offs[u] + int32(t.Degree(u))
	}
	s.nbrs = make([]int32, edges)
	for u := 0; u < n; u++ {
		row := s.nbrs[s.offs[u]:s.offs[u+1]]
		for i, v := range t.Neighbors(u) {
			row[i] = int32(v)
		}
		// The Topology contract promises ascending neighbor lists, but the
		// index tables depend on it, so enforce rather than trust.
		if !sort.SliceIsSorted(row, func(a, b int) bool { return row[a] < row[b] }) {
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		}
	}
	s.inSlot = make([]int32, edges)
	for u := 0; u < n; u++ {
		for sl := s.offs[u]; sl < s.offs[u+1]; sl++ {
			v := int(s.nbrs[sl])
			j := s.idxOf(v, u)
			if j < 0 {
				return nil, fmt.Errorf("machine: topology %s is asymmetric at edge (%d,%d)", t.Name(), u, v)
			}
			s.inSlot[sl] = s.offs[v] + int32(j)
		}
	}

	s.ringCap = uint32(cfg.LinkCapacity)
	s.ringSize = 1
	for s.ringSize < s.ringCap {
		s.ringSize <<= 1
	}
	s.ringMask = s.ringSize - 1
	s.buf = make([]T, edges*int(s.ringSize))
	s.heads = make([]uint32, edges)
	s.tails = make([]uint32, edges)

	s.nodes = make([]ctx[T], n)
	for u := range s.nodes {
		s.nodes[u].engine = s
		s.nodes[u].id = u
	}

	e := &Engine[T]{engineState: s, topo: t, key: key, runners: &runnerSet{}}
	return e, nil
}

// MustNew is New, panicking on error. Intended for tests, benchmarks and
// examples running on topologies that are symmetric by construction.
func MustNew[T any](t topology.Topology, cfg Config) *Engine[T] {
	e, err := New[T](t, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Release returns the engine to the package free list for reuse by a later
// New call with the same element type, topology identity and configuration.
// The caller must not use the engine afterwards. Releasing is optional —
// an engine that is simply dropped is collected as usual (a finalizer
// unwinds its parked node coroutines), it just cannot be recycled.
func (e *Engine[T]) Release() {
	if e.released {
		//dcvet:allow abortpanic -- double-Release is a caller bug with no error path by design
		panic("machine: Engine.Release called twice")
	}
	// Never recycle an engine whose links may hold residue: a failed run
	// already drained them, but an engine that never ran an errored program
	// since is indistinguishable here, so drain again — it is O(edges) on
	// empty rings.
	e.drainLinks()
	e.released = true
	e.onSend = nil
	v, _ := freeEngines.LoadOrStore(e.key, &engineStack{})
	st := v.(*engineStack)
	st.mu.Lock()
	if len(st.s) < maxFreeEngines {
		st.s = append(st.s, e)
		e = nil
	}
	st.mu.Unlock()
	if e != nil {
		// Free list full: tear the engine down now instead of waiting for
		// the finalizer, unwinding its parked coroutines deterministically.
		teardownRunners(e.runners)
	}
}

// pooled is the non-generic view of a free-listed engine, so the pool can
// tear down recycled engines without knowing their element type.
type pooled interface{ teardown() }

func (e *Engine[T]) teardown() { teardownRunners(e.runners) }

// ResetEnginePool discards every recycled engine, unwinding their parked
// node coroutines. Steady-state callers never need this — the pool is the
// point — but cold-start measurements (the E20 warm-versus-cold sweep and
// the cold benchmark variants) call it to force full engine construction on
// the next New. Engines currently checked out are unaffected: the pool only
// ever holds released, idle engines.
func ResetEnginePool() {
	freeEngines.Range(func(k, v any) bool {
		st := v.(*engineStack)
		st.mu.Lock()
		engines := st.s
		st.s = nil
		st.mu.Unlock()
		for _, e := range engines {
			e.(pooled).teardown()
		}
		freeEngines.Delete(k)
		return true
	})
}

// teardownRunners unwinds every parked node coroutine. Runs either
// explicitly (free-list eviction) or as the finalizer of a dropped Engine;
// iter.Pull's stop is idempotent, so the two cannot conflict.
func teardownRunners(h *runnerSet) {
	for i := range h.rs {
		if h.rs[i].stop != nil {
			h.rs[i].stop()
		}
	}
	h.rs = nil
}

// idxOf returns the position of v in u's sorted neighbor row, or -1. Binary
// search over the CSR row: O(log degree), no allocation.
func (s *engineState[T]) idxOf(u, v int) int {
	row := s.nbrs[s.offs[u]:s.offs[u+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(row[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && int(row[lo]) == v {
		return lo
	}
	return -1
}

// abortPanic unwinds a node program after the run has been failed.
type abortPanic struct{ err error }

// Run executes kern over the schedule sch on every node in lockstep, each
// node walking the schedule through the interpreter, and returns the cost
// statistics: the reference semantics RunDirect is held to.
func (e *Engine[T]) Run(sch *Schedule, kern DirectKernel[T]) (Stats, error) {
	if err := sch.checkFinalized(); err != nil {
		return Stats{Nodes: e.n}, err
	}
	return e.run(kernelProgram(sch, kern), nil)
}

// run is the engine core shared by Run and RunRecorded: it executes program
// on every node in lockstep. The program must perform the same number of
// clock cycles on every node (the usual SPMD discipline); the barrier leader
// reports a desynchronized program as an error deterministically, and the
// watchdog ends one that keeps stepping past Config.Timeout.
func (e *Engine[T]) run(program func(c *ctx[T]), onSend func(c *ctx[T], dst int)) (Stats, error) {
	if e.released {
		//dcvet:allow abortpanic -- use-after-Release is a caller bug with no error path by design
		panic("machine: Engine used after Release")
	}
	// The body below only touches the inner engineState, so without this
	// pin the Engine handle can become unreachable mid-run and its
	// finalizer (sched_pool.go) would unwind coroutines that are still
	// stepping.
	defer runtime.KeepAlive(e)
	s := e.engineState
	s.onSend = onSend
	s.cycles = 0
	s.commCycles = 0
	s.failed.Store(false)
	s.failMu.Lock()
	s.firstErr = nil
	s.failMu.Unlock()
	if err := s.armFaults(e.topo); err != nil {
		return Stats{Nodes: s.n}, err
	}
	for u := range s.nodes {
		c := &s.nodes[u]
		c.ops, c.cycle, c.msgs = 0, 0, 0
	}

	watchdog := time.AfterFunc(s.cfg.Timeout, func() {
		s.fail(fmt.Errorf("machine: run exceeded %v (desynchronized program?)", s.cfg.Timeout))
	})
	defer watchdog.Stop()

	s.atomicLinks = s.cfg.Workers > 1
	e.runWorkers(program)
	watchdog.Stop()

	s.failMu.Lock()
	err := s.firstErr
	s.failMu.Unlock()
	if err == nil {
		// Protocol hygiene: every sent message must have been consumed.
	hygiene:
		for u := 0; u < s.n; u++ {
			for sl := s.offs[u]; sl < s.offs[u+1]; sl++ {
				if d := s.tails[sl] - s.heads[sl]; d != 0 {
					err = fmt.Errorf("machine: %d unconsumed message(s) on link %d->%d", d, u, s.nbrs[sl])
					break hygiene
				}
			}
		}
	}

	st := Stats{
		Nodes:      s.n,
		Cycles:     s.cycles,
		CommCycles: s.commCycles,
	}
	if s.fx != nil {
		st.Faults.DownLinks = s.fx.downLinks
	}
	for u := range s.nodes {
		c := &s.nodes[u]
		st.Messages += c.msgs
		if c.ops > st.MaxOps {
			st.MaxOps = c.ops
		}
		st.TotalOps += int64(c.ops)
	}
	if err != nil {
		s.drainLinks()
	}
	return st, err
}

// drainLinks discards any in-flight residue so the engine can be reused
// after a failure, releasing references held by buffered elements.
func (s *engineState[T]) drainLinks() {
	var zero T
	for sl := range s.tails {
		for h := s.heads[sl]; h != s.tails[sl]; h++ {
			s.buf[uint32(sl)*s.ringSize+h&s.ringMask] = zero
		}
		s.heads[sl] = s.tails[sl]
	}
}

// fail records the first error and marks the run failed. No abort
// broadcast is needed: the worker barrier always completes a round, and the
// leader routes every worker into the drain path on the next cycle once the
// failure flag is up.
func (s *engineState[T]) fail(err error) {
	s.failMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.failMu.Unlock()
	s.failed.Store(true)
}
