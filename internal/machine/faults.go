package machine

import "fmt"

// FaultSpec is the engine-facing description of the failures injected into a
// run, in topology-neutral terms: the engine compiles it into its internal
// per-directed-link mask when a run starts with the spec armed (via
// Config.Faults). User-level fault plans live in
// internal/fault, which produces FaultSpec values; the machine package
// deliberately knows nothing about seeds or probabilities — only about which
// links are dead and which messages the wire loses or holds back.
//
// A FaultSpec must not be mutated after it has been armed. Specs are compared
// by pointer identity when the engine decides whether its compiled mask is
// still valid, so reuse the same *FaultSpec across runs to amortize the
// compile.
type FaultSpec struct {
	// Links lists permanently failed undirected links {U, V}: both directed
	// channels are down for the whole run.
	Links [][2]int
	// Nodes lists permanently failed nodes (fail-stop from the network's
	// point of view): every link incident to a listed node is down in both
	// directions. The node's program still executes — it is partitioned, not
	// halted — so SPMD lockstep is preserved.
	Nodes []int
	// Drop, when non-nil, reports whether the message sent from src to dst
	// during clock cycle c is lost in flight (a transient fault). The sender
	// spends its port and the message counts as sent, but it is never
	// delivered. Must be a pure function of its arguments so runs are
	// reproducible under any scheduler.
	Drop func(src, dst, cycle int) bool
	// Delay, when non-nil, returns the extra cycles of latency the message
	// sent from src to dst during cycle c suffers (0 = on time). Links stay
	// FIFO: a delayed message also holds back the messages queued behind it.
	// Must be pure, like Drop.
	Delay func(src, dst, cycle int) int
}

// FaultStats is the per-run fault breakdown reported in Stats.Faults. All
// counts are exactly reproducible: for a fixed program, topology and armed
// FaultSpec they do not depend on the scheduler or worker count.
type FaultStats struct {
	// DownLinks is the number of directed links masked out by the armed
	// spec (an undirected failure contributes 2).
	DownLinks int
	// DownNodes is the number of failed nodes of the armed spec.
	DownNodes int
	// RefusedSends counts send attempts on permanently failed links: the
	// failures TrySend reported (or that aborted the run, for non-Try sends).
	RefusedSends int64
	// DroppedMessages counts transient in-flight losses (FaultSpec.Drop).
	DroppedMessages int64
	// DelayedMessages counts messages that FaultSpec.Delay held back by at
	// least one cycle.
	DelayedMessages int64
}

// add accumulates b into a for Stats.Add: event counts sum across phases;
// the static plan figures (DownLinks, DownNodes) carry through unchanged,
// preferring a's non-zero values — composite algorithms run their phases on
// the same machine under the same armed plan.
func (a FaultStats) add(b FaultStats) FaultStats {
	out := FaultStats{
		DownLinks:       a.DownLinks,
		DownNodes:       a.DownNodes,
		RefusedSends:    a.RefusedSends + b.RefusedSends,
		DroppedMessages: a.DroppedMessages + b.DroppedMessages,
		DelayedMessages: a.DelayedMessages + b.DelayedMessages,
	}
	if out.DownLinks == 0 {
		out.DownLinks = b.DownLinks
	}
	if out.DownNodes == 0 {
		out.DownNodes = b.DownNodes
	}
	return out
}

// armedFaults is a FaultSpec compiled against one engine's CSR link table:
// the per-directed-edge-slot down mask the send path consults, plus the
// lazily allocated per-buffer-slot visibility stamps used only when the spec
// can delay messages. It is rebuilt only when the armed *FaultSpec changes
// (pointer identity), so repeated runs under one plan pay the compile once.
type armedFaults struct {
	spec      *FaultSpec
	down      []bool   // per directed edge slot: permanently failed
	stamps    []uint32 // per ring buffer slot: cycle after which the message is visible; nil when spec.Delay == nil
	downLinks int
	downNodes int
}

// armFaults compiles, if needed, the engine's fault spec for the coming
// run. With no spec armed it clears s.fx, keeping the hot path fault-free.
func (s *engineState[T]) armFaults() error {
	spec := s.cfg.Faults
	if spec == nil {
		s.fx = nil
		return nil
	}
	if s.fx != nil && s.fx.spec == spec {
		return nil
	}
	fx := &armedFaults{spec: spec, down: make([]bool, len(s.nbrs))}
	markDown := func(u, v int) error {
		i := s.idxOf(u, v)
		if i < 0 {
			return fmt.Errorf("machine: fault plan fails link %d-%d, which is not a link", u, v)
		}
		sl := int(s.offs[u]) + i
		if !fx.down[sl] {
			fx.down[sl] = true
			fx.downLinks++
		}
		return nil
	}
	for _, l := range spec.Links {
		if err := markDown(l[0], l[1]); err != nil {
			return err
		}
		if err := markDown(l[1], l[0]); err != nil {
			return err
		}
	}
	for _, u := range spec.Nodes {
		if u < 0 || u >= s.n {
			return fmt.Errorf("machine: fault plan fails node %d, outside 0..%d", u, s.n-1)
		}
		fx.downNodes++
		for sl := s.offs[u]; sl < s.offs[u+1]; sl++ {
			v := int(s.nbrs[sl])
			if !fx.down[sl] {
				fx.down[sl] = true
				fx.downLinks++
			}
			if err := markDown(v, u); err != nil {
				return err
			}
		}
	}
	if spec.Delay != nil {
		fx.stamps = make([]uint32, len(s.buf))
	}
	s.fx = fx
	return nil
}
