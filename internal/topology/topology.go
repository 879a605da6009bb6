// Package topology defines the interconnection networks used throughout the
// reproduction of "Prefix Computation and Sorting in Dual-Cube" (Li, Peng,
// Chu; ICPP 2008): the dual-cube itself, the hypercube it is derived from,
// and the bounded-degree competitor networks the paper's introduction
// compares against (cube-connected cycles, de Bruijn, shuffle-exchange).
//
// All networks are undirected, connected, and presented as static graphs on
// the node set {0, ..., Nodes()-1}. The package also provides the graph
// analysis used by the experiment harness (BFS distances, diameter, average
// distance, regularity) and the dual-cube-specific
// machinery the paper's algorithms rely on: class/cluster addressing, the
// point-to-point distance formula and routing, and the recursive (bit
// interleaved) presentation of Section 4.
package topology

// NodeID identifies a node of a network. Node IDs are dense: a network with
// N nodes uses exactly the IDs 0..N-1.
type NodeID = int

// Topology is the minimal interface every interconnection network
// implements. Implementations must describe a simple undirected graph:
// Neighbors never reports self-loops or duplicates, and u ∈ Neighbors(v)
// if and only if v ∈ Neighbors(u).
type Topology interface {
	// Name returns a short human-readable identifier such as "D_3" or "Q_5".
	Name() string
	// Nodes returns the number of nodes N. Valid node IDs are 0..N-1.
	Nodes() int
	// Degree returns the number of neighbors of u.
	Degree(u NodeID) int
	// Neighbors returns the neighbors of u in ascending order. The returned
	// slice is freshly allocated and may be retained by the caller.
	Neighbors(u NodeID) []NodeID
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v NodeID) bool
}

// EdgeCount returns the number of undirected edges of t.
func EdgeCount(t Topology) int {
	total := 0
	for u := 0; u < t.Nodes(); u++ {
		total += t.Degree(u)
	}
	return total / 2
}

// IsRegular reports whether every node of t has the same degree, and if so,
// that degree.
func IsRegular(t Topology) (degree int, ok bool) {
	n := t.Nodes()
	if n == 0 {
		return 0, true
	}
	degree = t.Degree(0)
	for u := 1; u < n; u++ {
		if t.Degree(u) != degree {
			return degree, false
		}
	}
	return degree, true
}

// itoa is a minimal integer formatter so the error path has no fmt
// dependency (this package sits under everything else).
func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	neg := x < 0
	if neg {
		x = -x
	}
	var buf [20]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// popcount returns the number of set bits of x. Node addresses are small
// (< 2^31) so a simple loop suffices; math/bits is avoided only to keep the
// arithmetic transparent next to the paper's Hamming-distance definitions.
func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// Popcount is the exported Hamming-weight helper used by tests and tools.
func Popcount(x int) int { return popcount(x) }
