package experiments

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/samplesort"
	"dualcube/internal/seq"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// E17SampleSort contrasts the two sorting families on large inputs
// (future-work items 1 and 3 combined): bitonic merge-split D_sort pays
// Θ(n²) fixed communication steps with perfectly balanced loads, while
// sample sort finishes in 4n collective rounds with data-dependent
// balance. Both must produce the identical sorted sequence.
func E17SampleSort(maxN, k int) (string, error) {
	t := newTable(fmt.Sprintf("E17 — sample sort vs bitonic sort (k = %d keys/node)", k),
		"n", "keys", "bitonic comm (6n²-7n+2)", "sample-sort rounds (4n)", "speedup", "outputs agree")
	intLess := func(a, b int) bool { return a < b }
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E17 n=%d: %w", n, err)
		}
		N := d.Nodes()
		in := randInts(int64(n+61), k*N, -1<<20, 1<<20)
		bit, stB, err := sortnet.DSortLarge(machine.Config{}, d, k, in, intLess, sortnet.Ascending)
		if err != nil {
			return "", fmt.Errorf("E17 bitonic n=%d: %w", n, err)
		}
		smp, stS, err := samplesort.Sort(machine.Config{}, d, k, in, intLess)
		if err != nil {
			return "", fmt.Errorf("E17 sample n=%d: %w", n, err)
		}
		agree := "yes"
		if !seq.IsSorted(smp, intLess) || len(bit) != len(smp) {
			agree = "NO"
		} else {
			for i := range bit {
				if bit[i] != smp[i] {
					agree = "NO"
					break
				}
			}
		}
		t.row(itoa(n), itoa(k*N), itoa(stB.Cycles), itoa(stS.Cycles),
			fmt.Sprintf("%.1fx", float64(stB.Cycles)/float64(stS.Cycles)), agree)
	}
	return t.String(), nil
}
