package main

import (
	"fmt"

	"dualcube"
)

// pinKey names one library call: operation, dual-cube order, and elements
// per node.
type pinKey struct {
	op   string
	n, k int
}

// pin is the part of a call's Stats that the paper's cost model fixes.
type pin struct{ Cycles, Messages, MaxOps int }

// pins holds the exact cost-model counts of every call the benchmark makes,
// at the full and the test sizes, as the library reported them when the
// benchmark was defined. They do not depend on the input values, the sort
// direction or the broadcast root. A call whose Stats differ is a
// correctness failure, not a speed result: D_n prefix takes 2n cycles
// (Theorem 1) and D_n sort 6n²-7n+2 (Theorem 2).
var pins = map[pinKey]pin{
	{"prefix", 3, 1}:        {Cycles: 6, Messages: 192, MaxOps: 6},
	{"allreduce", 3, 1}:     {Cycles: 6, Messages: 192, MaxOps: 5},
	{"broadcast", 3, 1}:     {Cycles: 6, Messages: 35, MaxOps: 0},
	{"sort", 3, 1}:          {Cycles: 35, Messages: 800, MaxOps: 15},
	{"prefix", 6, 1}:        {Cycles: 12, Messages: 24576, MaxOps: 12},
	{"allreduce", 6, 1}:     {Cycles: 12, Messages: 24576, MaxOps: 11},
	{"broadcast", 6, 1}:     {Cycles: 12, Messages: 2079, MaxOps: 0},
	{"sort", 6, 1}:          {Cycles: 176, Messages: 247808, MaxOps: 66},
	{"sortlarge", 3, 8}:     {Cycles: 35, Messages: 800, MaxOps: 16},
	{"sortlarge", 4, 64}:    {Cycles: 70, Messages: 6272, MaxOps: 29},
	{"prefixlarge", 3, 8}:   {Cycles: 6, Messages: 192, MaxOps: 21},
	{"prefixlarge", 5, 512}: {Cycles: 10, Messages: 5120, MaxOps: 1033},
	{"alltoall", 3, 1}:      {Cycles: 6, Messages: 192, MaxOps: 4},
	{"alltoall", 4, 1}:      {Cycles: 8, Messages: 1024, MaxOps: 6},
}

// pinned reports a call whose Stats differ from the pinned counts.
func pinned(op string, n, k int, st dualcube.Stats) error {
	p, ok := pins[pinKey{op, n, k}]
	if !ok {
		return fmt.Errorf("%s on D_%d, k=%d: no pinned Stats", op, n, k)
	}
	if got := (pin{st.Cycles, int(st.Messages), st.MaxOps}); got != p {
		return fmt.Errorf("%s on D_%d, k=%d: Stats %+v, pinned %+v", op, n, k, got, p)
	}
	return nil
}
