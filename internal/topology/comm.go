package topology

import "fmt"

// Comm is the communication view of a cube-like network: everything the
// schedule pipeline (internal/dcomm) needs to derive a schedule, and
// everything the algorithm kernels need to address their data, expressed
// without reference to a concrete topology type. A Comm decomposes its
// nodes into two classes of 2^m-node clusters joined by a perfect
// cross-edge matching — the structure Algorithm 2 of the paper exploits —
// exposes the block data layout (DataIndex) the prefix family relies on,
// and carries the recursive presentation Algorithm 3 runs over. Every
// operation of the algorithm packages takes a Comm.
//
// Three families implement it: the dual-cube D_n itself, the odd-dimensional
// hypercube Q_{2n-1} (which contains D_n as a spanning subgraph under the
// identity addressing, so the dual-cube decomposition is a valid
// communication structure for it), and the Z-cube Z_n (a dual-cube
// augmented with Möbius-twisted inter-cluster links; see zcube.go). Because
// every schedule step uses only skeleton links — cluster dimensions, the
// cross matching and the recursive dimensions routed over them — one
// compiled schedule shape serves all three, and the schedcheck proofs run
// generically over any Comm.
type Comm interface {
	Topology

	// Family identifies the topology family ("dualcube", "hypercube",
	// "zcube") — the stable cache and bench key, independent of order.
	Family() string
	// Order returns the dual-cube order n of the communication structure:
	// the network has 2^(2n-1) nodes split into clusters of dimension n-1.
	Order() int
	// ClusterDim returns m = n-1, the dimension of each cluster hypercube.
	ClusterDim() int
	// ClusterSize returns 2^m, the number of nodes per cluster.
	ClusterSize() int
	// Class returns the class indicator (0 or 1) of u.
	Class(u NodeID) int
	// ClusterID returns the cluster ID of u within its class.
	ClusterID(u NodeID) int
	// LocalID returns the node ID of u within its cluster (0..2^m-1).
	LocalID(u NodeID) int
	// NodeAt assembles a node address from class, cluster and local ID.
	NodeAt(class, cluster, local int) NodeID
	// NodeDimOffset returns the position of the least-significant node-ID
	// bit in a full address of the given class.
	NodeDimOffset(class int) int
	// ClusterNeighbor returns u's partner along cluster dimension i
	// (0 <= i < m): the same-cluster node whose local ID differs in bit i.
	ClusterNeighbor(u NodeID, i int) NodeID
	// CrossNeighbor returns the endpoint of u's cross-matching edge: the
	// node of the other class paired with u.
	CrossNeighbor(u NodeID) NodeID
	// SameCluster reports whether u and v lie in the same cluster.
	SameCluster(u, v NodeID) bool
	// DataIndex returns u's position in the block data layout (Section 3);
	// it is an involution, inverted by NodeAtDataIndex.
	DataIndex(u NodeID) int
	// NodeAtDataIndex returns the node holding element idx.
	NodeAtDataIndex(idx int) NodeID
	// Tables returns the order's node table set: the methods above,
	// precomputed per node, for kernels to index in their hot loops. All
	// three families return the same set at a given order.
	Tables() *Tables
	// Connectivity returns the family's known connectivity figures at this
	// order — the numbers behind the max-tolerable-fault claims.
	Connectivity() Connectivity

	// The recursive presentation of Section 4: the dimension-oriented
	// relabelling the sort family's routed exchanges (StepRecDim) and the
	// normal-algorithm sweep are built on.

	// RecDims returns the number of recursive dimensions, 2n-1.
	RecDims() int
	// ToRecursive converts an original address to its interleaved ID.
	ToRecursive(u NodeID) NodeID
	// FromRecursive inverts ToRecursive.
	FromRecursive(r NodeID) NodeID
	// RecDirect reports whether the pair {r, r^2^j} is joined by a direct
	// link (as opposed to the three-hop cross-routed detour).
	RecDirect(r NodeID, j int) bool
}

// Connectivity holds the connectivity figures of one topology at one order.
// Node and Link are the classical connectivities κ and λ (so any
// min(κ,λ)-1 faults leave the network connected); Tree3Node and Tree3Link
// are the generalized 3-(edge-)connectivities κ₃ and λ₃ when known, 0
// otherwise. Source records where the figures come from, printed beside the
// numbers by dcinfo -faulttol so a claim is never separated from its
// justification.
type Connectivity struct {
	Node      int    // κ: node connectivity
	Link      int    // λ: link (edge) connectivity
	Tree3Node int    // κ₃: generalized 3-connectivity (0 = not established)
	Tree3Link int    // λ₃: generalized 3-edge-connectivity (0 = not established)
	Source    string // provenance of the figures
}

// MaxTolerableLinkFaults returns the largest f for which any f link faults
// provably leave the network connected: λ - 1.
func (c Connectivity) MaxTolerableLinkFaults() int { return c.Link - 1 }

// Families lists the topology families with communication support, in the
// order sweeps and tables enumerate them.
func Families() []string { return []string{"dualcube", "hypercube", "zcube"} }

// CommByID returns the process-wide cached communication topology of the
// given family at dual-cube order n: D_n, Q_{2n-1} or Z_n. Like Shared, the
// returned values are immutable and identical across calls, so the lookup is
// allocation-free and the result is usable as a cache key.
func CommByID(family string, n int) (Comm, error) {
	if n < 1 || n > MaxDualCubeOrder {
		return nil, fmt.Errorf("topology: dual-cube order %d out of range [1,%d]", n, MaxDualCubeOrder)
	}
	switch family {
	case "dualcube":
		return shared[n], nil
	case "hypercube":
		return sharedHyper[n], nil
	case "zcube":
		return sharedZ[n], nil
	}
	return nil, fmt.Errorf("topology: unknown topology family %q (want dualcube, hypercube or zcube)", family)
}

// ValidLen is the shared input check of every per-node operation: it
// requires exactly one input element per node of t, with one uniform error
// wording across all algorithm packages.
func ValidLen(t Topology, lenIn int) error {
	if lenIn != t.Nodes() {
		return fmt.Errorf("dualcube: input length %d != %d nodes of %s", lenIn, t.Nodes(), t.Name())
	}
	return nil
}
