package dcomm

import (
	"dualcube/internal/machine"
)

// Execute runs one schedule-driven operation, dispatching between the two
// execution paths of a compiled schedule: the direct kernel executor under
// machine.SchedDefault (compiled schedules are static, so they run as array
// kernels with no simulation overhead), or, under machine.SchedWorkerPool,
// the engine interpreting the same schedule with the same kernel — the
// reference oracle. Both paths produce byte-identical outputs
// and Stats, armed link faults included; the golden and differential suites
// enforce it.
//
// This is the front every algorithm layer calls: prefix, the collectives,
// the sort family and the normal-algorithm sweeps of internal/emulate build
// their kernel, then Execute routes it. The oracle path builds an engine
// for the run and drops it afterwards.
func Execute[T any](sch *machine.Schedule, cfg machine.Config, kern machine.DirectKernel[T]) (machine.Stats, error) {
	if machine.DirectEligible(cfg) {
		return machine.RunDirect(sch, cfg, kern)
	}
	return machine.RunEngine(sch, cfg, kern)
}
