package dcomm

import (
	"dualcube/internal/machine"
)

// Execute runs one schedule-driven operation, dispatching between the two
// execution paths of a compiled schedule: the direct kernel executor under
// machine.SchedDefault (compiled schedules are static, so they run as array
// kernels with no simulation overhead), or, under machine.SchedWorkerPool,
// the worker-pool engine driving the same kernel through the KernelProgram
// adapter — the reference oracle. Both paths produce byte-identical outputs
// and Stats, armed link faults included; the golden and differential suites
// enforce it.
//
// This is the front every algorithm layer calls: prefix, the collectives
// and the sort family build their kernel, then Execute routes it. Engines
// are pooled — the oracle path checks one out for the schedule's topology
// and releases it after the run.
func Execute[T any](sch *machine.Schedule, cfg machine.Config, kern machine.DirectKernel[T]) (machine.Stats, error) {
	if machine.DirectEligible(cfg) {
		return machine.RunDirect(sch, cfg, kern)
	}
	eng, err := machine.New[T](sch.Topology(), cfg)
	if err != nil {
		return machine.Stats{}, err
	}
	defer eng.Release()
	return eng.Run(machine.KernelProgram(sch, kern))
}
