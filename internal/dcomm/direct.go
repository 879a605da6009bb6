package dcomm

import (
	"dualcube/internal/machine"
)

// Execute runs one schedule-driven operation, dispatching between the two
// execution paths of a compiled schedule: the direct kernel executor when
// cfg allows it (the zero Config does — compiled schedules are static, so
// they run as array kernels with no simulation overhead), or a simulator
// engine driving the same kernel through the KernelProgram adapter (cfg
// names an engine scheduler, or carries a fault spec with transient
// drop/delay hooks, which only a per-message wire can apply). Both paths
// produce byte-identical outputs and Stats; the golden and differential
// suites enforce it.
//
// This is the front every algorithm layer calls: prefix, the collectives
// and the sort family build their kernel, then Execute routes it. Engines
// are pooled exactly as before — the fallback path checks one out for the
// schedule's topology and releases it after the run.
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
