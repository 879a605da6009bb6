package topology

import "fmt"

// Hypercube is the binary q-cube Q_q: 2^q nodes, two nodes adjacent iff
// their addresses differ in exactly one bit. It is the reference network the
// dual-cube is derived from and the substrate of the paper's baseline
// algorithms (Sections 3 and 5).
type Hypercube struct {
	q int
}

// MaxHypercubeDim bounds the hypercube dimension so that node IDs and edge
// counts stay comfortably within int range on 32-bit platforms.
const MaxHypercubeDim = 28

// NewHypercube returns Q_q. The dimension must be in [0, MaxHypercubeDim];
// Q_0 is the single-node graph.
func NewHypercube(q int) (*Hypercube, error) {
	if q < 0 || q > MaxHypercubeDim {
		return nil, fmt.Errorf("topology: hypercube dimension %d out of range [0,%d]", q, MaxHypercubeDim)
	}
	return &Hypercube{q: q}, nil
}

// MustHypercube is NewHypercube but panics on an invalid dimension. Intended
// for tests and examples with constant dimensions.
func MustHypercube(q int) *Hypercube {
	h, err := NewHypercube(q)
	if err != nil {
		panic(err)
	}
	return h
}

// Dim returns the dimension q.
func (h *Hypercube) Dim() int { return h.q }

// Name implements Topology.
func (h *Hypercube) Name() string { return "Q_" + itoa(h.q) }

// Nodes implements Topology.
func (h *Hypercube) Nodes() int { return 1 << h.q }

// Degree implements Topology. Every node of Q_q has degree q.
func (h *Hypercube) Degree(u NodeID) int { return h.q }

// Neighbors implements Topology: the q nodes obtained by flipping each
// address bit, in ascending dimension order (which is also ascending ID
// order interleaved; the contract only requires a duplicate-free list, but
// we return them sorted for determinism).
func (h *Hypercube) Neighbors(u NodeID) []NodeID {
	ns := make([]NodeID, 0, h.q)
	for i := 0; i < h.q; i++ {
		ns = append(ns, u^(1<<i))
	}
	sortIDs(ns)
	return ns
}

// HasEdge implements Topology.
func (h *Hypercube) HasEdge(u, v NodeID) bool {
	if !h.valid(u) || !h.valid(v) {
		return false
	}
	return popcount(u^v) == 1
}

// Distance returns the length of a shortest path between u and v, which in
// a hypercube is the Hamming distance of the addresses.
func (h *Hypercube) Distance(u, v NodeID) int { return popcount(u ^ v) }

// Diameter returns the diameter q of Q_q.
func (h *Hypercube) Diameter() int { return h.q }

// Route returns a shortest path from u to v (inclusive of both endpoints),
// correcting differing bits in ascending dimension order.
func (h *Hypercube) Route(u, v NodeID) []NodeID {
	path := []NodeID{u}
	cur := u
	for i := 0; i < h.q; i++ {
		if (cur^v)&(1<<i) != 0 {
			cur ^= 1 << i
			path = append(path, cur)
		}
	}
	return path
}

func (h *Hypercube) valid(u NodeID) bool { return u >= 0 && u < h.Nodes() }

// Communication view (Comm): Q_{2n-1} contains D_n as a spanning
// subgraph under the identity addressing — every dual-cube link flips one
// address bit, so it is a hypercube link too. The dual-cube's class/cluster
// decomposition, cross matching, block data layout and recursive
// presentation are therefore valid communication structure for the
// odd-dimensional hypercube, and the schedule pipeline reuses them verbatim
// (the extra hypercube links are simply unused by cluster-technique
// schedules). Even-dimensional hypercubes have no such embedded dual-cube;
// their Comm methods panic, while the plain Topology methods above work for
// every q.

// dual returns the embedded spanning dual-cube D_{(q+1)/2}, panicking for
// even q.
func (h *Hypercube) dual() *DualCube {
	if h.q%2 == 0 {
		//dcvet:allow abortpanic -- Comm methods are interface methods with no error channel; calling them on an even-q hypercube is a caller bug (CommByID only hands out odd q)
		panic("topology: " + h.Name() + " has no dual-cube communication structure (dimension must be odd)")
	}
	return shared[(h.q+1)/2]
}

// Family implements Comm.
func (h *Hypercube) Family() string { return "hypercube" }

// Connectivity implements Comm: the classical hypercube figures κ=λ=q and
// the generalized 3-connectivity κ₃=λ₃=q-1 (Lin et al.).
func (h *Hypercube) Connectivity() Connectivity {
	c := Connectivity{
		Node:   h.q,
		Link:   h.q,
		Source: "κ=λ=q (classical)",
	}
	if h.q >= 2 {
		c.Tree3Node = h.q - 1
		c.Tree3Link = h.q - 1
		c.Source = "κ=λ=q (classical); κ₃=λ₃=q-1 (generalized connectivity of Q_q)"
	}
	return c
}

// Order returns the order n = (q+1)/2 of the embedded dual-cube (odd q).
func (h *Hypercube) Order() int { return h.dual().Order() }

// ClusterDim returns m = n-1 of the embedded dual-cube (odd q).
func (h *Hypercube) ClusterDim() int { return h.dual().ClusterDim() }

// ClusterSize returns 2^m of the embedded dual-cube (odd q).
func (h *Hypercube) ClusterSize() int { return h.dual().ClusterSize() }

// Class returns the class indicator of u under the embedded decomposition.
func (h *Hypercube) Class(u NodeID) int { return h.dual().Class(u) }

// ClusterID returns u's cluster ID under the embedded decomposition.
func (h *Hypercube) ClusterID(u NodeID) int { return h.dual().ClusterID(u) }

// LocalID returns u's within-cluster ID under the embedded decomposition.
func (h *Hypercube) LocalID(u NodeID) int { return h.dual().LocalID(u) }

// NodeAt assembles a node address from class, cluster and local ID.
func (h *Hypercube) NodeAt(class, cluster, local int) NodeID {
	return h.dual().NodeAt(class, cluster, local)
}

// NodeDimOffset returns the node-ID field offset of the given class.
func (h *Hypercube) NodeDimOffset(class int) int { return h.dual().NodeDimOffset(class) }

// ClusterNeighbor returns u's partner along cluster dimension i.
func (h *Hypercube) ClusterNeighbor(u NodeID, i int) NodeID {
	return h.dual().ClusterNeighbor(u, i)
}

// CrossNeighbor returns u's partner in the cross matching (the class bit).
func (h *Hypercube) CrossNeighbor(u NodeID) NodeID { return h.dual().CrossNeighbor(u) }

// SameCluster reports whether u and v share a cluster.
func (h *Hypercube) SameCluster(u, v NodeID) bool { return h.dual().SameCluster(u, v) }

// DataIndex returns u's position in the block data layout.
func (h *Hypercube) DataIndex(u NodeID) int { return h.dual().DataIndex(u) }

// NodeAtDataIndex returns the node holding element idx.
func (h *Hypercube) NodeAtDataIndex(idx int) NodeID { return h.dual().NodeAtDataIndex(idx) }

// Tables returns the embedded dual-cube's node table set (odd q).
func (h *Hypercube) Tables() *Tables { return h.dual().Tables() }

// RecDims returns the number of recursive dimensions, 2n-1 = q.
func (h *Hypercube) RecDims() int { return h.dual().RecDims() }

// ToRecursive converts an original address to its interleaved ID.
func (h *Hypercube) ToRecursive(u NodeID) NodeID { return h.dual().ToRecursive(u) }

// FromRecursive inverts ToRecursive.
func (h *Hypercube) FromRecursive(r NodeID) NodeID { return h.dual().FromRecursive(r) }

// RecDirect reports whether {r, r^2^j} is a direct link of the embedded
// dual-cube. (As hypercube links, all recursive dimensions are direct; the
// schedule pipeline routes by the embedded structure so the same schedules
// serve all Comm families.)
func (h *Hypercube) RecDirect(r NodeID, j int) bool { return h.dual().RecDirect(r, j) }

// sortIDs sorts a small slice of node IDs in place (insertion sort: the
// slices involved are neighbor lists, i.e. at most a few dozen entries).
func sortIDs(a []NodeID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
