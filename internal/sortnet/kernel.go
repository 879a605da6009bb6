package sortnet

import (
	"dualcube/internal/machine"
)

// This file holds the sort family's kernels: one compiled schedule, two
// kinds of data motion. A sort schedule (dcomm's OpDSort on any topology
// with a recursive presentation, CompiledCubeSort on the hypercube) is the
// whole sorting network — each step names the dimension it compares on and
// the sort-ID bit that orients its merge (machine.Step.Orient, or the
// caller's Order for the outermost merge), and Schedule.SortIDs maps every
// node to its sort ID. The kernels only move data: exchKernel
// compare-exchanges one key per node (DSort, CubeSort, and LaneSortKernel
// at k lanes per node), mergeKernel merge-splits a sorted chunk of k keys
// per node (DSortLarge). Each keeps the low or the high half
// as keepMinAt decides from the node's sort ID, the step's dimension and
// its orientation.

// exchKernel runs a sort schedule as a DirectKernel: one compare-exchange
// per schedule step. key holds each node's current key indexed by node ID;
// id is the schedule's node → sort-ID table. snaps, when non-nil, receives
// the Figure 5/6 trace: one key snapshot per step, indexed by sort ID.
type exchKernel[K any] struct {
	less  func(a, b K) bool
	ord   Order
	steps []machine.Step
	id    []int32
	key   []K
	snaps []Step[K]
}

func (ek *exchKernel[K]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, K) {
	return machine.DirectExchange, ek.key[u]
}

func (ek *exchKernel[K]) Absorb(dc *machine.DirectCtx, k, u int, v K) {
	st := &ek.steps[k]
	id := int(ek.id[u])
	dc.Ops(1)
	// The compare half of the exchange; ties keep the local key, which makes
	// the step deterministic for equal keys.
	key := ek.key[u]
	if keepMinAt(id, st.Dim, mergeDir(st, id, ek.ord)) {
		if ek.less(v, key) {
			key = v
		}
	} else if ek.less(key, v) {
		key = v
	}
	ek.key[u] = key
	if ek.snaps != nil {
		ek.snaps[k].Keys[id] = key
	}
}

func (ek *exchKernel[K]) Local(dc *machine.DirectCtx, k, u int) {}

// mergeDir is the direction of the merge that step st runs at the node with
// sort ID id, in a sort requested in order ord: the sort-ID bit the step is
// oriented by, or ord itself for the outermost merge.
func mergeDir(st *machine.Step, id int, ord Order) Order {
	if b := st.Orient.Bit(); b >= 0 {
		return Order(id >> b & 1)
	}
	return ord
}

// newDSortKernel loads keys (given in sort-ID order) onto the nodes of a
// compiled D_sort schedule.
func newDSortKernel[K any](sch *machine.Schedule, keys []K, less func(a, b K) bool, ord Order, snaps []Step[K]) *exchKernel[K] {
	id := sch.SortIDs()
	key := make([]K, len(keys))
	for u, r := range id {
		key[u] = keys[r]
	}
	return &exchKernel[K]{less: less, ord: ord, steps: sch.Steps, id: id, key: key, snaps: snaps}
}

// unload reads the sorted keys back in sort-ID order.
func (ek *exchKernel[K]) unload(out []K) []K {
	for u, r := range ek.id {
		out[r] = ek.key[u]
	}
	return out
}

// mergeKernel is exchKernel with a sorted chunk of k keys per node in place
// of one key, and merge-split in place of compare-exchange — the block
// generalization that keeps any sorting network correct on pre-sorted
// chunks (Baudet and Stevenson, 1978). Chunks live in a machine.Lanes arena
// double-buffered by step parity: node u's chunk for step s is
// lanes.Row(s, u), which Produce hands out as the payload and Absorb
// merge-splits with the partner's into lanes.Row(s+1, u). Partners read a
// row only during the pass after its Produce, and the row is next written
// two steps later, so a run allocates nothing after setup. Step 0's Produce
// first loads the node's input chunk and sorts it stably.
type mergeKernel[K any] struct {
	less  func(a, b K) bool
	ord   Order
	steps []machine.Step
	id    []int32
	in    []K // the input: chunk r is the node with sort ID r's
	lanes *machine.Lanes[K]
}

func (mk *mergeKernel[K]) Produce(dc *machine.DirectCtx, step, u int) (machine.DirectRole, []K) {
	row := mk.lanes.Row(step, u)
	if step == 0 {
		k := len(row)
		copy(row, mk.in[int(mk.id[u])*k:])
		sortChunk(row, mk.lanes.Row(1, u), mk.less)
		dc.Ops(1)
	}
	return machine.DirectExchange, row
}

func (mk *mergeKernel[K]) Absorb(dc *machine.DirectCtx, step, u int, v []K) {
	st := &mk.steps[step]
	id := int(mk.id[u])
	dc.Ops(1)
	own, dst := mk.lanes.Row(step, u), mk.lanes.Row(step+1, u)
	if keepMinAt(id, st.Dim, mergeDir(st, id, mk.ord)) {
		mergeLow(dst, own, v, mk.less)
	} else {
		mergeHigh(dst, own, v, mk.less)
	}
}

func (mk *mergeKernel[K]) Local(dc *machine.DirectCtx, step, u int) {}

// unload writes every node's final chunk to out in sort-ID order, each
// chunk reversed for a descending sort (chunks are kept ascending and the
// network decides which node holds which range).
func (mk *mergeKernel[K]) unload(out []K) []K {
	k := mk.lanes.Width()
	for u, r := range mk.id {
		row := mk.lanes.Row(len(mk.steps), u)
		res := out[int(r)*k:][:k]
		if mk.ord == Descending {
			for i, x := range row {
				res[k-1-i] = x
			}
		} else {
			copy(res, row)
		}
	}
	return out
}

// mergeLow fills dst with the len(dst) smallest keys of the ascending runs
// a and b, ascending; on ties a's key comes first. With len(dst) =
// len(a)+len(b) it is the stable merge of a and b.
func mergeLow[K any](dst, a, b []K, less func(x, y K) bool) {
	for t := range dst {
		if len(b) > 0 {
			if len(a) == 0 || less(b[0], a[0]) {
				dst[t], b = b[0], b[1:]
				continue
			}
		}
		if len(a) > 0 {
			dst[t], a = a[0], a[1:]
		}
	}
}

// mergeHigh fills dst with the len(dst) largest keys of the ascending runs
// a and b, ascending; on ties a's key comes last.
func mergeHigh[K any](dst, a, b []K, less func(x, y K) bool) {
	for t := len(dst) - 1; t >= 0; t-- {
		if j := len(b) - 1; j >= 0 {
			if len(a) == 0 || less(a[len(a)-1], b[j]) {
				dst[t], b = b[j], b[:j]
				continue
			}
		}
		if i := len(a) - 1; i >= 0 {
			dst[t], a = a[i], a[:i]
		}
	}
}

// sortChunk sorts chunk stably and ascending by bottom-up merging, with
// scratch (at least as long) as the second buffer.
func sortChunk[K any](chunk, scratch []K, less func(x, y K) bool) {
	src, dst := chunk, scratch[:len(chunk)]
	for w := 1; w < len(src); w *= 2 {
		for lo := 0; lo < len(src); lo += 2 * w {
			mid, hi := min(lo+w, len(src)), min(lo+2*w, len(src))
			mergeLow(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		}
		src, dst = dst, src
	}
	if len(src) > 0 && &src[0] != &chunk[0] {
		copy(chunk, src)
	}
}
