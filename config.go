package dualcube

import (
	"fmt"

	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// FaultPlan is a seeded, reproducible fault scenario for the simulator:
// permanent link and node failures plus transient per-message drop/delay
// noise. The same plan (or two plans with equal fields) always produces the
// same faults and the same Stats.Faults, under every backend. The
// degraded-mode prefix (PrefixDegraded and its variants) takes a plan per
// call; no other operation runs under one.
type FaultPlan = fault.Plan

// FaultLink names one undirected dual-cube link inside a FaultPlan.
type FaultLink = fault.Link

// FaultStats is the per-run fault breakdown reported in Stats.Faults.
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
