package sortnet

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// This file is the batched counterpart of exchKernel: Algorithm 3's
// compare-exchange ladder widened to k independent lanes per node. Every
// lane sorts its own key vector over the one compiled OpDSort schedule, and
// because the orientation resolves per lane — the steps oriented by the
// requested order read the lane's own Order — ascending and descending
// requests coalesce into the same pass. Lane l's compares are identical
// statement for statement with exchKernel's, so the batched sort is
// byte-identical to k unbatched DSort calls (the lanes differential tests
// enforce it).

// LaneSortKernel is exchKernel over k-wide rows.
type LaneSortKernel[K any] struct {
	less  func(a, b K) bool
	ords  []Order // per-lane direction for the steps oriented by order
	steps []machine.Step
	id    []int32
	k     int
	key   []K // node-major k-wide current keys
	lanes *machine.Lanes[K]
}

// NewLaneSortKernel builds the batched D_sort kernel: lane l sorts keys[l]
// (given in recursive-ID order) in direction ords[l]. Every key vector must
// hold one key per node of c; lanes must be at least len(keys) wide.
func NewLaneSortKernel[K any](c topology.Comm, lanes *machine.Lanes[K], keys [][]K, less func(a, b K) bool, ords []Order) (*LaneSortKernel[K], error) {
	if len(keys) != len(ords) {
		return nil, fmt.Errorf("sortnet: %d key lanes with %d directions", len(keys), len(ords))
	}
	for _, ord := range ords {
		if err := validOrder(ord); err != nil {
			return nil, err
		}
	}
	sch, err := dcomm.Compiled(c, dcomm.OpDSort)
	if err != nil {
		return nil, err
	}
	id := sch.SortIDs()
	k := len(keys)
	key := make([]K, c.Nodes()*k)
	for u, r := range id {
		for l := 0; l < k; l++ {
			key[u*k+l] = keys[l][r]
		}
	}
	return &LaneSortKernel[K]{
		less: less, ords: append([]Order(nil), ords...), steps: sch.Steps, id: id,
		k: k, key: key, lanes: lanes,
	}, nil
}

func (lk *LaneSortKernel[K]) Produce(dc *machine.DirectCtx, step, u int) (machine.DirectRole, []K) {
	row := lk.lanes.Row(step, u)[:lk.k]
	copy(row, lk.key[u*lk.k:(u+1)*lk.k])
	return machine.DirectExchange, row
}

func (lk *LaneSortKernel[K]) Absorb(dc *machine.DirectCtx, step, u int, v []K) {
	st := &lk.steps[step]
	id := int(lk.id[u])
	dc.Ops(1)
	// Re-slice the key row and payload to the lane width up front so the
	// per-lane compare loops carry no bounds checks (escgate pins this).
	key := lk.key[u*lk.k:][:lk.k]
	v = v[:lk.k]
	if b := st.Orient.Bit(); b >= 0 {
		// Oriented by a sort-ID bit: one keep-min decision covers every lane.
		if keepMinAt(id, st.Dim, Order(id>>b&1)) {
			for l, kv := range key {
				if lk.less(v[l], kv) {
					key[l] = v[l]
				}
			}
		} else {
			for l, kv := range key {
				if lk.less(kv, v[l]) {
					key[l] = v[l]
				}
			}
		}
		return
	}
	// Outermost merge: direction is the lane's requested Order.
	ords := lk.ords[:lk.k]
	for l, kv := range key {
		if keepMinAt(id, st.Dim, ords[l]) {
			if lk.less(v[l], kv) {
				key[l] = v[l]
			}
		} else if lk.less(kv, v[l]) {
			key[l] = v[l]
		}
	}
}

func (lk *LaneSortKernel[K]) Local(dc *machine.DirectCtx, step, u int) {}

// Unload reads lane l's sorted keys back into out in sort-ID order.
func (lk *LaneSortKernel[K]) Unload(l int, out []K) []K {
	for u := 0; u < len(lk.key)/lk.k; u++ {
		out[lk.id[u]] = lk.key[u*lk.k+l]
	}
	return out
}
