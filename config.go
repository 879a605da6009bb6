package dualcube

import (
	"fmt"

	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// FaultPlan is a reproducible fault scenario for the simulator: a set of
// permanently failed links, the fault model of the paper's degraded mode.
// The same plan (or two plans with equal links) always produces the same
// detours and the same Stats, on every backend. The degraded-mode prefix
// (PrefixDegraded and its variants) takes a plan per call; no other
// operation runs under one.
type FaultPlan = fault.Plan

// FaultLink names one undirected dual-cube link inside a FaultPlan.
type FaultLink = fault.Link

// FaultStats is the per-run fault figure reported in Stats.Faults: the
// number of directed links the armed plan failed.
type FaultStats = machine.FaultStats

// RandomFaultPlan builds a seeded plan of f random permanent link faults on
// D_n. Keep f <= n-1 (the link connectivity of D_n) for the guarantee that
// every fault-tolerant schedule survives; larger f is allowed but may
// disconnect the network.
func RandomFaultPlan(n, f int, seed int64) (*FaultPlan, error) {
	d, err := topology.Shared(n)
	if err != nil {
		return nil, err
	}
	if f < 0 || f > d.Nodes()*d.Order()/2 {
		return nil, fmt.Errorf("dualcube: fault count %d outside 0..%d", f, d.Nodes()*d.Order()/2)
	}
	return fault.Random(d, f, seed), nil
}
