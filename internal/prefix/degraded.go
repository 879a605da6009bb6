package prefix

import (
	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// DPrefixDegraded runs Algorithm 2 on c with permanent link faults. It is
// the same kernel as DPrefix — prefixKernel — executed over the
// fault-rewritten schedule: dcomm.RewriteFT annotates every exchange pattern
// severed by the fault view with its broken-pair mask and the canonical
// detour relays, and both execution paths stretch the affected steps
// accordingly (the direct executor masks the severed pairs in the kernel and
// replays the detours as a per-step epilogue; the simulator interpreter
// relays them message by message). The fault plan is armed in the executor
// in place of cfg's own Faults, so the run aborts if the schedule ever touches failed hardware —
// correctness of the detours is machine-checked, not assumed.
//
// The result is correct for any f <= n-1 permanent link faults (the link
// connectivity of D_n is n, and Q_{2n-1} and Z_n contain D_n, so every
// broken pair keeps an alive repair path);
// larger f is accepted as long as the network stays connected, and rejected
// with an error when it does not.
//
// With a nil (or empty) plan the rewrite returns the fault-free schedule
// itself and the run is byte-identical to DPrefix: 2n communication steps.
// Each repaired pair adds 2·(detour length − 1) cycles per affected exchange;
// the measured totals versus Theorem 1's fault-free 2n+1 bound are tabulated
// in EXPERIMENTS.md.
func DPrefixDegraded[T any](cfg machine.Config, c topology.Comm, in []T, m monoid.Monoid[T], inclusive bool, plan *fault.Plan) ([]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}
	base, err := dcomm.Compiled(c, dcomm.OpPrefix)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	sch, err := dcomm.RewriteFT(base, fault.NewView(c, plan))
	if err != nil {
		return nil, machine.Stats{}, err
	}

	out := make([]T, len(in))
	cfg.Faults = plan.Spec()
	st, err := dcomm.Execute(sch, cfg, newPrefixKernel(c, m, inclusive, in, out, nil))
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// DegradedCommOverhead returns the extra communication cycles a
// fault-rewritten prefix schedule appends to the fault-free 2n schedule.
// Steps reuse their pattern's repairs, so cluster-dimension repairs are paid
// twice (steps 1 and 3) and cross repairs twice (steps 2 and 4); the
// schedule's RepairCycles field carries exactly that per-step sum.
func DegradedCommOverhead(sch *machine.Schedule) int { return sch.RepairCycles }
