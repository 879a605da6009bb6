package topology

import "fmt"

// shared holds the one immutable *DualCube value per order. A DualCube is a
// pair of ints with purely arithmetic methods, so a single value can be
// shared by every caller in the process for the lifetime of the program —
// there is nothing to evict and nothing to synchronize. The table is built
// eagerly at init (14 tiny allocations, once), which keeps Shared a plain
// array read on every call.
var shared [MaxDualCubeOrder + 1]*DualCube

// sharedZ and sharedHyper extend the same eager, allocation-free sharing to
// the other Comm families, indexed by dual-cube order n: Z_n and Q_{2n-1}.
var (
	sharedZ     [MaxDualCubeOrder + 1]*ZCube
	sharedHyper [MaxDualCubeOrder + 1]*Hypercube
)

func init() {
	for n := 1; n <= MaxDualCubeOrder; n++ {
		shared[n] = &DualCube{n: n, m: n - 1}
		sharedZ[n] = &ZCube{sk: shared[n]}
		sharedHyper[n] = &Hypercube{q: 2*n - 1}
	}
}

// Shared returns the process-wide cached D_n. It is the allocation-free
// equivalent of NewDualCube and the only constructor the algorithm layers
// should use: repeated calls return the identical pointer, so steady-state
// operation entry costs no topology construction at all.
func Shared(n int) (*DualCube, error) {
	if n < 1 || n > MaxDualCubeOrder {
		return nil, fmt.Errorf("topology: dual-cube order %d out of range [1,%d]", n, MaxDualCubeOrder)
	}
	return shared[n], nil
}
