package machine

import (
	"fmt"

	"dualcube/internal/topology"
)

// This file is the direct kernel executor: the second way to run a compiled
// Schedule. The simulator engine executes a schedule as N communicating
// node programs — coroutines that all reach a clock boundary every cycle —
// which is the faithful machine model but pure overhead once the
// communication pattern is static. A finalized Schedule IS static: every
// step's matching is a precomputed partner table. The direct executor
// therefore runs the schedule as a sequence of array kernels over one flat
// []T of per-node payloads, on the caller's goroutine: per communication
// step, one loop over the partner table performs every node's matched
// exchange + combine in place (zero coroutines, zero clock boundaries), and
// a StepLocalCombine is a fused local loop.
//
// The executor is NOT a second semantics. The algorithm is supplied as a
// DirectKernel — produce a payload + role per step, absorb the partner's
// payload, run the local combine — and the same kernel value runs unchanged
// on the simulator engine, whose node program (kernelProgram) interprets
// the schedule. Stats are reproduced exactly: cycles = communication steps
// (+ detour relay cycles), CommCycles counts steps that carried at least one
// message, Messages sums the per-step sender counts, MaxOps/TotalOps
// aggregate the per-node DirectCtx.Ops accounts, and Stats.Faults reports
// the armed plan's DownLinks from the same compiled down set (downSet).
// TestIRGoldenStats and the differential suite hold the executor to
// byte-identical Stats and outputs against the schedule interpreter.
//
// Fault-rewritten schedules run too: a step's Broken mask suppresses the
// severed pairs' matched sends (they idle, exactly as on the engine), the
// partner's payload is delivered anyway — that is precisely what the detour
// relays compute — and the Detours are replayed as a serial accounting +
// validation epilogue per step: 2·(len(Path)−1) cycles each, one message per
// relay hop, every hop checked against the armed fault plan's down set.

// DirectRole is the communication role a kernel assigns to one node for one
// schedule step: whether it exchanges, sends, receives or idles on the
// step's link. SendRecv needs no role of its own — on a finalized schedule
// both sides of a matched pair use the same link, so a node that both sends
// and receives is simply DirectExchange.
type DirectRole uint8

const (
	// DirectIdle spends the step without communicating.
	DirectIdle DirectRole = iota
	// DirectExchange sends the produced payload to the step's partner and
	// absorbs the partner's payload.
	DirectExchange
	// DirectSend sends the produced payload; nothing is absorbed.
	DirectSend
	// DirectRecv absorbs the partner's payload; nothing is sent.
	DirectRecv
)

// DirectCtx is a kernel's accounting handle. Kernels record computation
// rounds through Ops; on the engine the calls land in the node's own
// account (its ctx), so both execution paths account identically.
type DirectCtx struct {
	u    int
	ops  []int64 // per-node computation rounds (direct executor)
	node *int    // the node's account on the engine; nil on the direct path
}

// Ops adds k computation rounds to the current node's account.
func (dc *DirectCtx) Ops(k int) {
	if dc.node != nil {
		*dc.node += k
		return
	}
	dc.ops[dc.u] += int64(k)
}

// DirectKernel is one schedule-driven operation expressed as array kernels.
// The executor drives it per (step, node); the contract is that each call
// touches only node u's state (its own slots of the kernel's per-node
// arrays), because neither executor runs one node's steps back to back: the
// engine resumes every node once per cycle, and each direct pass runs one
// step's absorbs for every node before any node's next produce.
//
// For a communication step k, Produce(dc, k, u) returns node u's role and
// outgoing payload (ignored unless the role sends); if the role receives,
// Absorb(dc, k, u, v) is later called with the partner's produced payload.
// Within one node, Absorb for step k-1 always precedes Produce for step k.
// For a StepLocalCombine, Local(dc, k, u) runs instead. Matched pairs must
// agree within a step — a receiver whose partner does not send (or a sender
// whose partner does not receive) is a protocol error, as on the engine.
type DirectKernel[T any] interface {
	Produce(dc *DirectCtx, k, u int) (DirectRole, T)
	Absorb(dc *DirectCtx, k, u int, v T)
	Local(dc *DirectCtx, k, u int)
}

// DirectEligible reports whether a schedule-driven operation under cfg runs
// on the direct executor: the zero Sched does, SchedWorkerPool forces the
// engine. An armed fault spec does not matter — permanent link faults are
// static, and both executors compile them alike.
func DirectEligible(cfg Config) bool { return cfg.Sched == SchedDefault }

// RunDirect executes a finalized schedule as array kernels and returns the
// run's cost statistics, identical to what RunEngine reports for the same
// schedule and kernel. cfg contributes Faults (compiled by downSet, as the
// engine compiles its armed spec, and checked against the schedule's
// annotations).
func RunDirect[T any](sch *Schedule, cfg Config, kern DirectKernel[T]) (Stats, error) {
	topo := sch.Topology()
	n := topo.Nodes()
	st := Stats{Nodes: n}
	steps := sch.Steps
	if err := sch.checkFinalized(); err != nil {
		return st, err
	}

	var down map[int]bool
	if cfg.Faults != nil {
		var err error
		if down, err = downSet(topo, cfg.Faults); err != nil {
			return st, err
		}
		st.Faults.DownLinks = len(down)
	}

	// One backing array per kind halves the allocation count; the halves
	// double-buffer by pointer swap below.
	payload := make([]T, 2*n)
	roles := make([]DirectRole, 2*n)
	r := &directRun[T]{
		steps:     steps,
		kern:      kern,
		n:         n,
		cur:       payload[:n:n],
		prev:      payload[n:],
		rolesCur:  roles[:n:n],
		rolesPrev: roles[n:],
		down:      down,
	}
	r.dc.ops = make([]int64, n)

	// Pass p absorbs step p-1 and produces step p, so pass len(steps) only
	// drains the final exchange. Payload and role arrays double-buffer
	// between passes: producers write cur, absorbers read prev, so node u's
	// absorb may read any partner's slot and a pass needs no order among
	// its nodes.
	for p := 0; p <= len(steps); p++ {
		sends, err := r.pass(p)
		if err != nil {
			return st, err
		}
		if p < len(steps) {
			if s := &steps[p]; s.Kind == StepRecDim {
				// A recursive-dimension exchange is the 3-cycle cross-routed
				// choreography of recDimExchange: half the pairs are direct
				// j-links, the other half route through two cross-edges, so
				// the parallel step is 3 cycles and 2N messages (N/2 direct
				// nodes send 3 each, N/2 routed nodes send 1). Every cross
				// edge and every dimension-j direct link carries traffic in
				// both directions, so an armed fault on any of them fails the
				// step exactly as the engine choreography would.
				if down != nil {
					if err := checkRecDimLinks(sch.D, s.Dim, down, n); err != nil {
						return st, err
					}
				}
				st.Cycles += 3
				if sends > 0 {
					st.CommCycles += 3
					st.Messages += int64(2 * sends)
				}
			} else if s.Kind != StepLocalCombine {
				st.Cycles++
				if sends > 0 {
					st.CommCycles++
					st.Messages += int64(sends)
				}
				// Detour epilogue: each severed pair's repair relays run
				// serially after the matched cycle — len(Path)-1 hops out,
				// the same back, one message per hop-cycle. The values were
				// already delivered by the absorb pass (a relay carries
				// exactly the payload the endpoint produced), so the epilogue
				// is pure accounting plus fault-plan validation of the path.
				for di := range s.Detours {
					dt := &s.Detours[di]
					h := len(dt.Path) - 1
					st.Cycles += 2 * h
					st.CommCycles += 2 * h
					st.Messages += int64(2 * h)
					if down != nil {
						for i := 0; i < h; i++ {
							if down[dt.Path[i]*n+dt.Path[i+1]] {
								return st, fmt.Errorf("machine: node %d: send to %d on a failed link", dt.Path[i], dt.Path[i+1])
							}
							if down[dt.Path[i+1]*n+dt.Path[i]] {
								return st, fmt.Errorf("machine: node %d: send to %d on a failed link", dt.Path[i+1], dt.Path[i])
							}
						}
					}
				}
			}
		}
		r.prev, r.cur = r.cur, r.prev
		r.rolesPrev, r.rolesCur = r.rolesCur, r.rolesPrev
	}

	for _, o := range r.dc.ops {
		if int(o) > st.MaxOps {
			st.MaxOps = int(o)
		}
		st.TotalOps += o
	}
	return st, nil
}

// directRun is the per-run state of the direct executor: the
// double-buffered payload and role arrays, the compiled down set of the
// armed fault plan and the kernels' accounting handle.
type directRun[T any] struct {
	steps     []Step
	kern      DirectKernel[T]
	n         int
	cur, prev []T
	rolesCur  []DirectRole
	rolesPrev []DirectRole
	down      map[int]bool // directed down links, keyed u*n+v; nil = fault-free
	dc        DirectCtx
}

// pass runs every node, in ascending order, through pass p: absorb step
// p-1, then produce step p (or run its local combine), and counts the
// step's senders. Protocol checks fold into the same loops — a receiver
// whose partner did not send, a sender whose partner does not receive, and
// a sender whose link the armed fault plan severed (outside the schedule's
// Broken mask) are the engine's empty-link, unconsumed-message and
// failed-link errors. The first error recorded wins, so its node is the
// lowest failing node of its loop. A kernel call that panics (a user less
// or combine, say) ends the pass and becomes the engine's "node u panicked"
// error, unless an error was recorded before it.
func (r *directRun[T]) pass(p int) (sends int, err error) {
	dc := &r.dc
	defer func() {
		if v := recover(); v != nil && err == nil {
			err = fmt.Errorf("machine: node %d panicked: %v", dc.u, v)
		}
	}()
	if p > 0 {
		if s := &r.steps[p-1]; s.Kind != StepLocalCombine {
			partners := s.partners
			prev, roles := r.prev, r.rolesPrev
			for u := 0; u < r.n; u++ {
				role := roles[u]
				w := int(partners[u])
				if role == DirectExchange || role == DirectRecv {
					if wr := roles[w]; wr != DirectExchange && wr != DirectSend {
						if err == nil {
							err = fmt.Errorf("machine: node %d: receive from %d on an empty link", u, w)
						}
						continue
					}
					dc.u = u
					r.kern.Absorb(dc, p-1, u, prev[w])
				} else if wr := roles[w]; (wr == DirectExchange || wr == DirectSend) && err == nil {
					err = fmt.Errorf("machine: 1 unconsumed message(s) on link %d->%d", w, u)
				}
			}
		}
	}
	if p < len(r.steps) {
		s := &r.steps[p]
		if s.Kind == StepLocalCombine {
			for u := 0; u < r.n; u++ {
				dc.u = u
				r.kern.Local(dc, p, u)
			}
			return sends, err
		}
		partners, broken := s.partners, s.Broken
		recDim := s.Kind == StepRecDim
		for u := 0; u < r.n; u++ {
			dc.u = u
			role, v := r.kern.Produce(dc, p, u)
			r.rolesCur[u] = role
			r.cur[u] = v
			if recDim && role != DirectExchange {
				// The 3-cycle choreography has no one-sided variant: a node
				// that sends without receiving (or vice versa) would wedge the
				// engine's relay cycles, so the direct path rejects it too.
				if err == nil {
					err = fmt.Errorf("machine: node %d: recursive-dimension step %d requires a matched exchange, got role %d", u, p, role)
				}
				continue
			}
			if role != DirectExchange && role != DirectSend {
				continue
			}
			if broken != nil && broken[u] {
				continue // severed pair: idles the matched cycle, served by the detour epilogue
			}
			if r.down != nil && !recDim {
				// RecDim partners may be non-adjacent (the routed half); the
				// step's fault validation runs link-exactly in RunDirect via
				// checkRecDimLinks instead.
				if w := int(partners[u]); r.down[u*r.n+w] {
					if err == nil {
						err = fmt.Errorf("machine: node %d: send to %d on a failed link", u, w)
					}
					continue
				}
			}
			sends++
		}
	}
	return sends, err
}

// checkRecDimLinks validates one recursive-dimension exchange against the
// armed fault plan's down set. The choreography uses, in both directions,
// every cross edge (the routed half's delivery plus the direct half's relay
// traffic) and every dimension-j direct link, so any down link among them
// fails the step; the reported (sender, receiver) pair is the first send of
// the choreography that would traverse it.
func checkRecDimLinks(d topology.Comm, j int, down map[int]bool, n int) error {
	for u := 0; u < n; u++ {
		cross := d.CrossNeighbor(u)
		r := d.ToRecursive(u)
		if d.RecDirect(r, j) {
			if w := d.FromRecursive(r ^ 1<<j); down[u*n+w] {
				return fmt.Errorf("machine: node %d: send to %d on a failed link", u, w)
			}
		}
		if down[u*n+cross] {
			return fmt.Errorf("machine: node %d: send to %d on a failed link", u, cross)
		}
	}
	return nil
}
