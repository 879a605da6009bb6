package prefix

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// seg is the element of the segmented-scan monoid: a value plus a flag
// marking whether the element's prefix has crossed a segment boundary.
type seg[T any] struct {
	head bool
	val  T
}

// segMonoid lifts m to the classic segmented-scan operator:
//
//	(f1,v1) ⊕ (f2,v2) = (f1∨f2, v2)        if f2 (right side starts a segment)
//	                  = (f1∨f2, v1⊕v2)     otherwise
//
// This operator is associative whenever m is, so segmented scan is just a
// plain parallel prefix over the lifted elements — which is exactly how it
// runs on the dual-cube, at the unchanged 2n communication steps.
func segMonoid[T any](m monoid.Monoid[T]) monoid.Monoid[seg[T]] {
	return monoid.Monoid[seg[T]]{
		Name:     "segmented(" + m.Name + ")",
		Identity: func() seg[T] { return seg[T]{head: false, val: m.Identity()} },
		Combine: func(a, b seg[T]) seg[T] {
			if b.head {
				return seg[T]{head: true, val: b.val}
			}
			return seg[T]{head: a.head, val: m.Combine(a.val, b.val)}
		},
	}
}

// DPrefixSegmented computes the inclusive segmented prefix of values on
// c: heads[i] = true starts a new segment at i, and out[i] combines the
// values from its segment's start through i. Element 0 implicitly starts
// the first segment. Costs exactly the same 2n communication steps as
// DPrefix — segmentation is free.
func DPrefixSegmented[T any](cfg machine.Config, c topology.Comm, values []T, heads []bool, m monoid.Monoid[T]) ([]T, machine.Stats, error) {
	if len(values) != len(heads) {
		return nil, machine.Stats{}, fmt.Errorf("prefix: %d values but %d segment flags", len(values), len(heads))
	}
	in := make([]seg[T], len(values))
	for i := range values {
		in[i] = seg[T]{head: heads[i], val: values[i]}
	}
	lifted, st, err := DPrefix(cfg, c, in, segMonoid(m), true, nil)
	if err != nil {
		return nil, st, err
	}
	out := make([]T, len(values))
	for i, s := range lifted {
		out[i] = s.val
	}
	return out, st, nil
}
