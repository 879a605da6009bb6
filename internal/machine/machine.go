// Package machine runs compiled communication schedules (schedule.go): an
// operation is a finalized Schedule plus a DirectKernel, executed either by
// the direct kernel executor (direct.go), the default, or by the engine,
// the synchronous message-passing multicomputer that the paper's cost
// model assumes: one process per node of an interconnection network, links
// as bidirectional FIFO channels, and a global clock. On the engine every
// node walks the same schedule, calling the kernel at each step, and a
// clock boundary that every node reaches advances the global clock.
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
// (sends happen before the clock boundary, receives after) and are buffered
// in FIFO order per directed link, so a value sent in cycle t may be
// consumed in any cycle >= t. A receive on an empty link, a send to a
// non-neighbor, or a link buffer overflow aborts the whole run with a
// descriptive error — the machine is also a protocol checker for the
// algorithms above it.
//
// # Execution
//
// Every run uses one goroutine, its caller's. The engine walks each node's
// schedule in a coroutine (iter.Pull) that parks at every clock boundary,
// and resumes every live coroutine once per cycle, in node order, so
// resuming a node is a direct stack switch with no Go-scheduler
// involvement and no lock. After each round of resumes it does the cycle's
// accounting, which detects desynchronized programs deterministically. An
// engine serves one run: RunEngine and RunRecorded build it, each node
// coroutine runs the program once and returns, and the engine is dropped.
//
// Because the accounting sees every broken lockstep, the watchdog (one
// minute plus 30ms per node) only has runaway lockstep programs left to
// end: nodes that keep stepping together forever. A node that blocked
// outside the machine's primitives would wedge the whole run; RunEngine
// accepts only a schedule and a kernel, so the one program a node
// coroutine runs is the package's own interpreter.
//
// The direct kernel executor (direct.go) is the second path, and not a
// simulator at all: it runs a finalized Schedule as array kernels over flat
// per-node state — no coroutines, no clock boundaries, one loop over the
// nodes per schedule step — and reproduces the engine's Stats exactly.
// Operations use it by default (see DirectEligible); the engine remains the
// reference semantics, the oracle the direct executor is tested against.
// Runs may execute concurrently with each other (concurrent calls on one
// Runtime, serve's shards), but nothing inside a run is parallel.
//
// # Cost-model invariants
//
// The engine counts clock cycles (communication time), cycles in which at
// least one message was sent, total messages (= hops, since every send
// traverses one link), and per-node computation rounds reported by the
// kernels through DirectCtx.Ops. The maximum per-node operation count is the
// parallel computation time the paper's theorems bound. The engine keeps
// these measures exactly: Cycles is the number of clock rounds,
// CommCycles counts rounds whose preceding send phase carried at least one
// message, Messages is the sum of per-node send counts, and MaxOps/TotalOps
// aggregate the per-node operation accounts. Scheduling order inside a
// cycle is deterministic (node order), so repeated runs produce identical
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
// or the watchdog); RunEngine reports the failure that caused it.
var errAborted = errors.New("machine: run aborted")

// Sched selects the execution backend of a run.
type Sched uint8

const (
	// SchedDefault is the zero Config's choice: every operation runs on the
	// direct executor (DirectEligible).
	SchedDefault Sched = iota
	// SchedWorkerPool selects the engine, which interprets the same
	// schedule with the same kernel on its caller's goroutine: the
	// reference oracle the direct executor is tested against. Its name
	// predates the single-goroutine engine; test names embed it.
	SchedWorkerPool
)

func (s Sched) String() string {
	if s == SchedWorkerPool {
		return "worker-pool"
	}
	return "default"
}

// scaledTimeout is the engine's watchdog: a base of one minute plus 30ms
// per node, so the ceiling grows with the machine instead of starving
// large-n runs (a fixed 60s could be exceeded spuriously by big bitonic
// sorts under instrumentation).
func scaledTimeout(n int) time.Duration {
	return 60*time.Second + time.Duration(n)*30*time.Millisecond
}

// linkCapacity is the per-directed-link buffer depth of the engine. The
// paper's algorithms need at most 2 in-flight messages per link; 4 leaves
// headroom while still catching runaway protocols, and as a power of two
// it makes a ring index a mask.
const linkCapacity = 4

// Config selects how a run executes. Either backend runs on its caller's
// goroutine.
type Config struct {
	// Sched selects the execution backend: SchedDefault runs every
	// operation on the direct executor, SchedWorkerPool on the engine.
	Sched Sched
	// Faults arms a fault specification for every run: the listed links are
	// permanently down (see FaultSpec). nil means a fault-free run.
	Faults *FaultSpec
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

// roundState is the per-cycle accounting's verdict for one clock cycle.
type roundState uint8

const (
	roundRun   roundState = iota // all nodes still stepping: keep going
	roundDone                    // every node finished: stop cleanly
	roundAbort                   // failure recorded or desync detected: drain
)

// engine is a synchronous multicomputer over a fixed topology, built for
// one run (RunEngine, RunRecorded) and dropped after it.
type engine[T any] struct {
	topo topology.Topology
	cfg  Config
	n    int

	// timeout is the watchdog: it aborts a run still stepping after this
	// long, a lockstep program that never ends (the per-cycle accounting
	// already catches every desynchronized one). scaledTimeout(n);
	// machine's tests shorten it.
	timeout time.Duration

	// Precomputed CSR adjacency and per-edge index tables. Directed edge
	// slot s = offs[u]+i carries messages u -> nbrs[s]; inSlot[s] is the
	// slot of the reverse edge nbrs[s] -> u, so receives resolve their link
	// without touching the peer's adjacency row.
	offs   []int32
	nbrs   []int32
	inSlot []int32

	// SPSC ring buffers, one per directed edge slot, in a single flat
	// allocation. Cursors grow monotonically (uint32 wraparound is fine);
	// slot s occupies buf[s*linkCapacity : (s+1)*linkCapacity].
	ringCap uint32 // messages a link may hold: linkCapacity; machine's tests lower it
	buf     []T
	heads   []uint32 // consumer cursors, written by the receiving node only
	tails   []uint32 // producer cursors, written by the sending node only

	nodes []ctx[T] // per-node contexts

	// fx is the compiled form of the armed fault spec, nil when the run is
	// fault-free — the send and receive paths check only this one pointer.
	fx *armedFaults

	cycles     int  // clock rounds completed
	commCycles int  // rounds whose send phase carried traffic
	sent       bool // did any node send since the last round?
	state      roundState
	onSend     func(c *ctx[T], dst int) // optional send hook (recording)

	// The watchdog fails the run from its own timer goroutine.
	failMu   sync.Mutex
	failed   atomic.Bool
	firstErr error
}

// newEngine builds an engine over t, or reports an error if t is not a
// symmetric simple graph (every directed edge must have a reverse edge so
// links can be full-duplex). Table construction is O(N · degree · log
// degree).
func newEngine[T any](t topology.Topology, cfg Config) (*engine[T], error) {
	n := t.Nodes()
	e := &engine[T]{topo: t, cfg: cfg, n: n, timeout: scaledTimeout(n), ringCap: linkCapacity}
	e.offs = make([]int32, n+1)
	for u := 0; u < n; u++ {
		e.offs[u+1] = e.offs[u] + int32(t.Degree(u))
	}
	edges := int(e.offs[n])
	e.nbrs = make([]int32, edges)
	for u := 0; u < n; u++ {
		row := e.nbrs[e.offs[u]:e.offs[u+1]]
		for i, v := range t.Neighbors(u) {
			row[i] = int32(v)
		}
		// The Topology contract promises ascending neighbor lists, but the
		// index tables depend on it, so enforce rather than trust.
		if !sort.SliceIsSorted(row, func(a, b int) bool { return row[a] < row[b] }) {
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		}
	}
	e.inSlot = make([]int32, edges)
	for u := 0; u < n; u++ {
		for sl := e.offs[u]; sl < e.offs[u+1]; sl++ {
			v := int(e.nbrs[sl])
			j := e.idxOf(v, u)
			if j < 0 {
				return nil, fmt.Errorf("machine: topology %s is asymmetric at edge (%d,%d)", t.Name(), u, v)
			}
			e.inSlot[sl] = e.offs[v] + int32(j)
		}
	}

	e.buf = make([]T, edges*linkCapacity)
	e.heads = make([]uint32, edges)
	e.tails = make([]uint32, edges)

	e.nodes = make([]ctx[T], n)
	for u := range e.nodes {
		e.nodes[u].engine = e
		e.nodes[u].id = u
	}
	return e, nil
}

// idxOf returns the position of v in u's sorted neighbor row, or -1. Binary
// search over the CSR row: O(log degree), no allocation.
func (e *engine[T]) idxOf(u, v int) int {
	row := e.nbrs[e.offs[u]:e.offs[u+1]]
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

// RunEngine executes kern over the finalized schedule sch on the engine,
// each node walking the schedule through the interpreter in lockstep on the
// calling goroutine, and returns the cost statistics: the reference
// semantics RunDirect is held to. The engine is built for this run and
// dropped after it.
func RunEngine[T any](sch *Schedule, cfg Config, kern DirectKernel[T]) (Stats, error) {
	e, err := engineFor[T](sch, cfg)
	if err != nil {
		return Stats{Nodes: sch.Topology().Nodes()}, err
	}
	return e.run(kernelProgram(sch, kern))
}

// engineFor builds the engine of one run of sch, which must be finalized.
func engineFor[T any](sch *Schedule, cfg Config) (*engine[T], error) {
	if err := sch.checkFinalized(); err != nil {
		return nil, err
	}
	return newEngine[T](sch.Topology(), cfg)
}

// run executes program on every node in lockstep, once. The program must
// perform the same number of clock cycles on every node (the usual SPMD
// discipline); the per-cycle accounting reports a desynchronized program as
// an error deterministically, and the watchdog ends one that keeps stepping
// past e.timeout.
func (e *engine[T]) run(program func(c *ctx[T])) (Stats, error) {
	if err := e.armFaults(); err != nil {
		return Stats{Nodes: e.n}, err
	}
	watchdog := time.AfterFunc(e.timeout, func() {
		e.fail(fmt.Errorf("machine: run exceeded %v (desynchronized program?)", e.timeout))
	})
	e.runNodes(program)
	watchdog.Stop()

	e.failMu.Lock()
	err := e.firstErr
	e.failMu.Unlock()
	if err == nil {
		// Protocol hygiene: every sent message must have been consumed.
	hygiene:
		for u := 0; u < e.n; u++ {
			for sl := e.offs[u]; sl < e.offs[u+1]; sl++ {
				if d := e.tails[sl] - e.heads[sl]; d != 0 {
					err = fmt.Errorf("machine: %d unconsumed message(s) on link %d->%d", d, u, e.nbrs[sl])
					break hygiene
				}
			}
		}
	}

	st := Stats{
		Nodes:      e.n,
		Cycles:     e.cycles,
		CommCycles: e.commCycles,
	}
	if e.fx != nil {
		st.Faults.DownLinks = e.fx.downLinks
	}
	for u := range e.nodes {
		c := &e.nodes[u]
		st.Messages += c.msgs
		if c.ops > st.MaxOps {
			st.MaxOps = c.ops
		}
		st.TotalOps += int64(c.ops)
	}
	return st, err
}

// fail records the first error and marks the run failed. No abort
// broadcast is needed: the accounting at the end of the cycle sees the flag
// and routes the run into its drain pass.
func (e *engine[T]) fail(err error) {
	e.failMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.failMu.Unlock()
	e.failed.Store(true)
}
