package topology

import "fmt"

// The paper's introduction motivates the dual-cube against the classical
// bounded-degree hypercube derivatives: cube-connected cycles, the shuffle-
// exchange graph and the de Bruijn graph. These are implemented here so the
// comparison table of experiment E11 (degree / diameter / edge count at
// comparable sizes) is generated from real graphs rather than quoted.

// CCC is the cube-connected cycles network CCC_k: each node of a k-cube is
// replaced by a cycle of k nodes; node (p, v) (cycle position p, cube vertex
// v) is adjacent to its two cycle neighbors and, via the "cube" edge at its
// position, to (p, v ^ 2^p). Degree 3 for k >= 3.
type CCC struct {
	k int
}

// NewCCC returns CCC_k for k >= 3 (smaller k degenerates into multigraphs).
func NewCCC(k int) (*CCC, error) {
	if k < 3 || k > 24 {
		return nil, fmt.Errorf("topology: CCC order %d out of range [3,24]", k)
	}
	return &CCC{k: k}, nil
}

// Dim returns k.
func (c *CCC) Dim() int { return c.k }

// Name implements Topology.
func (c *CCC) Name() string { return "CCC_" + itoa(c.k) }

// Nodes implements Topology: k * 2^k.
func (c *CCC) Nodes() int { return c.k << c.k }

// id packs (position, vertex) as vertex*k + position.
func (c *CCC) id(p, v int) NodeID { return v*c.k + p }

// unpack splits an ID into cycle position and cube vertex.
func (c *CCC) unpack(u NodeID) (p, v int) { return u % c.k, u / c.k }

// Degree implements Topology: CCC_k is 3-regular for k >= 3.
func (c *CCC) Degree(u NodeID) int { return 3 }

// Neighbors implements Topology.
func (c *CCC) Neighbors(u NodeID) []NodeID {
	p, v := c.unpack(u)
	ns := []NodeID{
		c.id((p+1)%c.k, v),
		c.id((p+c.k-1)%c.k, v),
		c.id(p, v^(1<<p)),
	}
	sortIDs(ns)
	return ns
}

// HasEdge implements Topology.
func (c *CCC) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= c.Nodes() || v >= c.Nodes() || u == v {
		return false
	}
	pu, vu := c.unpack(u)
	pv, vv := c.unpack(v)
	if vu == vv {
		d := pu - pv
		if d < 0 {
			d = -d
		}
		return d == 1 || d == c.k-1
	}
	return pu == pv && vu^vv == 1<<pu
}

// DeBruijn is the (undirected) binary de Bruijn graph DB_q on 2^q nodes:
// node u is adjacent to the nodes reachable by a left shift (2u mod N, +0/1)
// or a right shift (u >> 1, optionally with the high bit set). Self-loops at
// the all-zero and all-one nodes are dropped, so the graph is near-4-regular.
type DeBruijn struct {
	q int
}

// NewDeBruijn returns DB_q for q in [1, MaxHypercubeDim].
func NewDeBruijn(q int) (*DeBruijn, error) {
	if q < 1 || q > MaxHypercubeDim {
		return nil, fmt.Errorf("topology: de Bruijn order %d out of range [1,%d]", q, MaxHypercubeDim)
	}
	return &DeBruijn{q: q}, nil
}

// Name implements Topology.
func (d *DeBruijn) Name() string { return "DB_" + itoa(d.q) }

// Nodes implements Topology.
func (d *DeBruijn) Nodes() int { return 1 << d.q }

// Neighbors implements Topology: shift neighbors with self-loops and
// duplicates removed.
func (d *DeBruijn) Neighbors(u NodeID) []NodeID {
	mask := d.Nodes() - 1
	cand := []NodeID{
		(u << 1) & mask,
		(u<<1)&mask | 1,
		u >> 1,
		u>>1 | 1<<(d.q-1),
	}
	return dedupNeighbors(u, cand)
}

// Degree implements Topology.
func (d *DeBruijn) Degree(u NodeID) int { return len(d.Neighbors(u)) }

// HasEdge implements Topology.
func (d *DeBruijn) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= d.Nodes() || v >= d.Nodes() || u == v {
		return false
	}
	for _, w := range d.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// ShuffleExchange is the shuffle-exchange graph SE_q on 2^q nodes: node u is
// adjacent to u^1 (exchange) and to the left and right rotations of its
// address (shuffle, unshuffle). Self-loops at the fixed points of rotation
// are dropped.
type ShuffleExchange struct {
	q int
}

// NewShuffleExchange returns SE_q for q in [1, MaxHypercubeDim].
func NewShuffleExchange(q int) (*ShuffleExchange, error) {
	if q < 1 || q > MaxHypercubeDim {
		return nil, fmt.Errorf("topology: shuffle-exchange order %d out of range [1,%d]", q, MaxHypercubeDim)
	}
	return &ShuffleExchange{q: q}, nil
}

// Name implements Topology.
func (s *ShuffleExchange) Name() string { return "SE_" + itoa(s.q) }

// Nodes implements Topology.
func (s *ShuffleExchange) Nodes() int { return 1 << s.q }

// rotl rotates the q-bit address left by one.
func (s *ShuffleExchange) rotl(u NodeID) NodeID {
	mask := s.Nodes() - 1
	return (u<<1)&mask | u>>(s.q-1)
}

// rotr rotates the q-bit address right by one.
func (s *ShuffleExchange) rotr(u NodeID) NodeID {
	return u>>1 | (u&1)<<(s.q-1)
}

// Neighbors implements Topology.
func (s *ShuffleExchange) Neighbors(u NodeID) []NodeID {
	cand := []NodeID{u ^ 1, s.rotl(u), s.rotr(u)}
	return dedupNeighbors(u, cand)
}

// Degree implements Topology.
func (s *ShuffleExchange) Degree(u NodeID) int { return len(s.Neighbors(u)) }

// HasEdge implements Topology.
func (s *ShuffleExchange) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= s.Nodes() || v >= s.Nodes() || u == v {
		return false
	}
	for _, w := range s.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// dedupNeighbors removes self-loops and duplicates from a small candidate
// list and returns it sorted.
func dedupNeighbors(u NodeID, cand []NodeID) []NodeID {
	sortIDs(cand)
	out := cand[:0]
	for i, v := range cand {
		if v == u || (i > 0 && v == cand[i-1]) {
			continue
		}
		out = append(out, v)
	}
	return out
}
