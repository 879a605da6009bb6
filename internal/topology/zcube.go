package topology

import "fmt"

// ZCube is Z_n: the dual-cube D_n augmented with Möbius-twisted
// inter-cluster links, after the Z-cube idea of Zhang et al. (arXiv
// 1509.06884) — trade a slightly higher degree for a shorter diameter while
// keeping a hypercube-like recursive structure.
//
// Z_n keeps every link of D_n verbatim (D_n is a spanning subgraph) and adds
// m = n-1 "foreign" links per node, one per dimension of the cluster-ID
// field — the field the dual-cube can only change by crossing to the other
// class and back. Foreign dimension j (0 <= j < m) connects u to the node of
// the same class and local ID whose cluster ID F differs by a 0-Möbius-cube
// step:
//
//	bit F_{j+1} = 0 (or j = m-1): flip bit j of F            (hypercube step)
//	bit F_{j+1} = 1:              flip bits j..0 of F        (twisted step)
//
// The decision bit j+1 lies outside the flipped range, so the rule computes
// the same mask at both endpoints and each foreign link is a symmetric
// involution; the masks have distinct top bits across j, so the m links are
// distinct; and they flip only cluster-ID bits while every skeleton link
// flips a node-ID bit or the class bit, so foreign and skeleton links never
// coincide. Z_n is therefore a regular graph of degree n + m = 2n-1, and
// each class's clusters form a 0-Möbius cube MQ_m instead of being 2 hops
// apart through the other class — the source of the diameter savings (the
// structural tests pin small-order diameters by BFS).
//
// All Comm structure — classes, clusters, the cross matching,
// the block data layout, the recursive presentation — is inherited from the
// skeleton unchanged, so every compiled schedule runs on Z_n over skeleton
// links with outputs and costs identical to D_n; the foreign links are
// spare capacity for routing and fault tolerance.
type ZCube struct {
	sk *DualCube
}

// NewZCube returns Z_n. The order must be in [1, MaxDualCubeOrder]; Z_1 has
// no foreign links and coincides with D_1 = K_2.
func NewZCube(n int) (*ZCube, error) {
	sk, err := NewDualCube(n)
	if err != nil {
		return nil, fmt.Errorf("topology: z-cube order %d out of range [1,%d]", n, MaxDualCubeOrder)
	}
	return &ZCube{sk: sk}, nil
}

// MustZCube is NewZCube but panics on an invalid order.
func MustZCube(n int) *ZCube {
	z, err := NewZCube(n)
	if err != nil {
		panic(err)
	}
	return z
}

// Skeleton returns the spanning dual-cube Z_n is built over.
func (z *ZCube) Skeleton() *DualCube { return z.sk }

// Name implements Topology.
func (z *ZCube) Name() string { return "Z_" + itoa(z.sk.n) }

// Family implements Comm.
func (z *ZCube) Family() string { return "zcube" }

// Nodes implements Topology: N = 2^(2n-1), as in D_n.
func (z *ZCube) Nodes() int { return z.sk.Nodes() }

// Degree implements Topology: n skeleton links plus n-1 foreign links.
func (z *ZCube) Degree(u NodeID) int { return 2*z.sk.n - 1 }

// foreignMask returns the cluster-ID-field XOR mask of foreign dimension j
// as seen from a node whose cluster ID is f: the 0-Möbius-cube step rule.
func (z *ZCube) foreignMask(f, j int) int {
	if j == z.sk.m-1 || (f>>(j+1))&1 == 0 {
		return 1 << j
	}
	return 1<<(j+1) - 1
}

// ForeignNeighbor returns u's partner along foreign dimension j
// (0 <= j < n-1): the node of the same class and local ID whose cluster ID
// differs by the Möbius step of dimension j.
func (z *ZCube) ForeignNeighbor(u NodeID, j int) NodeID {
	b := z.sk.NodeDimOffset(1 - z.sk.Class(u)) // offset of the cluster-ID field
	return u ^ z.foreignMask(z.sk.ClusterID(u), j)<<b
}

// Neighbors implements Topology: the n skeleton neighbors plus the n-1
// foreign neighbors, in ascending ID order.
func (z *ZCube) Neighbors(u NodeID) []NodeID {
	ns := make([]NodeID, 0, 2*z.sk.n-1)
	for i := 0; i < z.sk.m; i++ {
		ns = append(ns, z.sk.ClusterNeighbor(u, i))
	}
	ns = append(ns, z.sk.CrossNeighbor(u))
	for j := 0; j < z.sk.m; j++ {
		ns = append(ns, z.ForeignNeighbor(u, j))
	}
	sortIDs(ns)
	return ns
}

// HasEdge implements Topology: a skeleton edge of D_n, or a foreign edge —
// same class, same local ID, and a cluster-ID difference matching the
// Möbius step of the dimension given by its highest differing bit.
func (z *ZCube) HasEdge(u, v NodeID) bool {
	if z.sk.HasEdge(u, v) {
		return true
	}
	if !z.sk.Valid(u) || !z.sk.Valid(v) || u == v {
		return false
	}
	if z.sk.Class(u) != z.sk.Class(v) || z.sk.LocalID(u) != z.sk.LocalID(v) {
		return false
	}
	x := z.sk.ClusterID(u) ^ z.sk.ClusterID(v)
	if x == 0 {
		return false
	}
	return x == z.foreignMask(z.sk.ClusterID(u), log2ceilBit(x))
}

// log2ceilBit returns the position of the highest set bit of x (x > 0).
func log2ceilBit(x int) int {
	j := 0
	for x > 1 {
		x >>= 1
		j++
	}
	return j
}

// Connectivity implements Comm. The spanning D_n skeleton gives the
// conservative lower bounds κ, λ >= n (every D_n cut is a Z_n cut only if
// the foreign links do not bridge it, so Z_n tolerates at least the
// dual-cube's n-1 link faults); the degree 2n-1 is the trivial upper bound.
// The figures below state only what the skeleton proves.
func (z *ZCube) Connectivity() Connectivity {
	return Connectivity{
		Node: z.sk.n,
		Link: z.sk.n,
		Source: "κ=λ>=n, lower bound via the spanning D_n skeleton " +
			"(Li/Peng/Chu ICPP'08); degree 2n-1 is the trivial upper bound",
	}
}

// Comm structure: inherited from the skeleton unchanged.

// Order returns the skeleton order n.
func (z *ZCube) Order() int { return z.sk.Order() }

// ClusterDim returns m = n-1.
func (z *ZCube) ClusterDim() int { return z.sk.ClusterDim() }

// ClusterSize returns 2^(n-1).
func (z *ZCube) ClusterSize() int { return z.sk.ClusterSize() }

// Class returns the class indicator of u.
func (z *ZCube) Class(u NodeID) int { return z.sk.Class(u) }

// ClusterID returns the cluster ID of u within its class.
func (z *ZCube) ClusterID(u NodeID) int { return z.sk.ClusterID(u) }

// LocalID returns the node ID of u within its cluster.
func (z *ZCube) LocalID(u NodeID) int { return z.sk.LocalID(u) }

// NodeAt assembles a node address from class, cluster and local ID.
func (z *ZCube) NodeAt(class, cluster, local int) NodeID {
	return z.sk.NodeAt(class, cluster, local)
}

// NodeDimOffset returns the node-ID field offset of the given class.
func (z *ZCube) NodeDimOffset(class int) int { return z.sk.NodeDimOffset(class) }

// ClusterNeighbor returns u's skeleton partner along cluster dimension i.
func (z *ZCube) ClusterNeighbor(u NodeID, i int) NodeID { return z.sk.ClusterNeighbor(u, i) }

// CrossNeighbor returns the endpoint of u's cross-edge.
func (z *ZCube) CrossNeighbor(u NodeID) NodeID { return z.sk.CrossNeighbor(u) }

// SameCluster reports whether u and v lie in the same cluster.
func (z *ZCube) SameCluster(u, v NodeID) bool { return z.sk.SameCluster(u, v) }

// DataIndex returns u's position in the block data layout.
func (z *ZCube) DataIndex(u NodeID) int { return z.sk.DataIndex(u) }

// NodeAtDataIndex returns the node holding element idx.
func (z *ZCube) NodeAtDataIndex(idx int) NodeID { return z.sk.NodeAtDataIndex(idx) }

// Tables returns the skeleton's node table set.
func (z *ZCube) Tables() *Tables { return z.sk.Tables() }

// RecDims returns the number of recursive dimensions, 2n-1.
func (z *ZCube) RecDims() int { return z.sk.RecDims() }

// ToRecursive converts an original address to its interleaved ID.
func (z *ZCube) ToRecursive(u NodeID) NodeID { return z.sk.ToRecursive(u) }

// FromRecursive inverts ToRecursive.
func (z *ZCube) FromRecursive(r NodeID) NodeID { return z.sk.FromRecursive(r) }

// RecDirect reports whether {r, r^2^j} is joined by a direct skeleton link.
func (z *ZCube) RecDirect(r NodeID, j int) bool { return z.sk.RecDirect(r, j) }
