// Package embedding constructs the linear-structure embeddings that back
// the paper's claim that the dual-cube "keeps most of the interesting
// properties of the hypercube": reflected Gray codes, Hamiltonian paths in
// hypercubes between any two opposite-parity nodes (Havel's theorem,
// constructively), and a Hamiltonian cycle of the dual-cube built with the
// cluster technique — a ring of 2^(2n-1) processors embedded with dilation
// 1, which is what makes linear-array algorithms portable to D_n.
package embedding

import (
	"fmt"

	"dualcube/internal/topology"
)

// GrayCode returns the m-bit reflected Gray code: a cyclic sequence of all
// 2^m values in which consecutive entries (including last-to-first) differ
// in exactly one bit. GrayCode(0) = [0].
func GrayCode(m int) []int {
	out := make([]int, 1<<m)
	for i := range out {
		out[i] = i ^ i>>1
	}
	return out
}

// parity returns the Hamming weight of x modulo 2.
func parity(x int) int { return topology.Popcount(x) & 1 }

// HypercubePath returns a Hamiltonian path of Q_m from a to b. Such a path
// exists if and only if a != b and parity(a) != parity(b) (the hypercube is
// bipartite with equal sides, and a Hamiltonian path has an odd number of
// edges); the construction is the standard recursion on a dimension where
// the endpoints differ.
func HypercubePath(m int, a, b topology.NodeID) ([]topology.NodeID, error) {
	N := 1 << m
	if m < 1 || m > topology.MaxHypercubeDim {
		return nil, fmt.Errorf("embedding: hypercube dimension %d out of range", m)
	}
	if a < 0 || a >= N || b < 0 || b >= N {
		return nil, fmt.Errorf("embedding: endpoints (%d, %d) out of range for Q_%d", a, b, m)
	}
	if parity(a) == parity(b) {
		return nil, fmt.Errorf("embedding: no Hamiltonian path of Q_%d between same-parity nodes %d and %d", m, a, b)
	}
	return hamPath(m, a, b), nil
}

// hamPath implements the recursion; preconditions (validated by the
// caller) are 1 <= m, 0 <= a,b < 2^m, parity(a) != parity(b).
func hamPath(m int, a, b int) []int {
	if m == 1 {
		return []int{a, b}
	}
	diff := a ^ b
	d := lowestBit(diff)
	if m == 2 {
		// parity differs in Q_2 => Hamming distance 1; walk the 4-cycle the
		// long way around.
		e := 0
		if d == 0 {
			e = 1
		}
		return []int{a, a ^ 1<<e, a ^ 1<<e ^ 1<<d, b}
	}
	// Split along dimension d: a and b lie in different halves. Choose the
	// crossing point x in a's half: parity(x) != parity(a) and x^2^d != b.
	// There are 2^(m-2) >= 2 candidates, so a valid one always exists; take
	// the smallest for determinism.
	x := -1
	for cand := 0; cand < 1<<m; cand++ {
		if cand>>d&1 != a>>d&1 {
			continue // wrong half
		}
		if parity(cand) == parity(a) {
			continue
		}
		if cand^1<<d == b {
			continue
		}
		x = cand
		break
	}
	// Recurse within the two (m-1)-subcubes, dropping bit d.
	p1 := expand(hamPath(m-1, compress(a, d), compress(x, d)), d, a>>d&1)
	p2 := expand(hamPath(m-1, compress(x^1<<d, d), compress(b, d)), d, b>>d&1)
	return append(p1, p2...)
}

// compress removes bit d from v (shifting higher bits down).
func compress(v, d int) int {
	low := v & (1<<d - 1)
	high := v >> (d + 1)
	return high<<d | low
}

// expand reinserts bit d with the given value into every node of path.
func expand(path []int, d, bit int) []int {
	out := make([]int, len(path))
	for i, v := range path {
		low := v & (1<<d - 1)
		high := v >> d
		out[i] = high<<(d+1) | bit<<d | low
	}
	return out
}

// lowestBit returns the position of the least significant set bit of x.
func lowestBit(x int) int {
	i := 0
	for x&1 == 0 {
		x >>= 1
		i++
	}
	return i
}

// DualCubeHamiltonianCycle returns a Hamiltonian cycle of D_n for n >= 2
// as the sequence of its 2^(2n-1) node addresses; consecutive nodes (and
// the last-to-first pair) are joined by links. D_1 is K_2, which has no
// cycle — use the two-node path directly.
//
// Construction (cluster technique + Gray codes): let g be the cyclic
// (n-1)-bit Gray code. The cycle alternates between the two classes,
//
//	... -> C0_{g_i} -> C1_{g_i} -> C0_{g_{i+1}} -> ...
//
// traversing class-0 cluster g_i by a Hamiltonian path from local g_{i-1}
// to local g_i, crossing to class-1 cluster g_i (entry local g_i),
// traversing it to local g_{i+1}, and crossing back. Gray adjacency makes
// every within-cluster endpoint pair differ in exactly one bit — odd
// parity difference — so the required hypercube Hamiltonian paths exist.
func DualCubeHamiltonianCycle(n int) ([]topology.NodeID, error) {
	d, err := topology.Shared(n)
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("embedding: D_1 is K_2 and has no Hamiltonian cycle")
	}
	m := d.ClusterDim()
	g := GrayCode(m)
	M := len(g)
	cycle := make([]topology.NodeID, 0, d.Nodes())
	for i := 0; i < M; i++ {
		prev := g[(i+M-1)%M]
		next := g[(i+1)%M]
		// Class-0 cluster g[i]: local prev -> local g[i].
		p0, err := HypercubePath(m, prev, g[i])
		if err != nil {
			return nil, err
		}
		for _, local := range p0 {
			cycle = append(cycle, d.NodeAt(0, g[i], local))
		}
		// Cross to class-1 cluster g[i] (entry local g[i]), traverse to
		// local next, cross back.
		p1, err := HypercubePath(m, g[i], next)
		if err != nil {
			return nil, err
		}
		for _, local := range p1 {
			cycle = append(cycle, d.NodeAt(1, g[i], local))
		}
	}
	return cycle, nil
}

// VerifyCycle checks that path is a Hamiltonian cycle of t: it visits
// every node exactly once and every consecutive pair (cyclically) is an
// edge. It returns nil if so.
func VerifyCycle(t topology.Topology, path []topology.NodeID) error {
	if len(path) != t.Nodes() {
		return fmt.Errorf("embedding: cycle length %d != %d nodes", len(path), t.Nodes())
	}
	seen := make([]bool, t.Nodes())
	for _, u := range path {
		if u < 0 || u >= t.Nodes() || seen[u] {
			return fmt.Errorf("embedding: node %d repeated or out of range", u)
		}
		seen[u] = true
	}
	for i := range path {
		u, v := path[i], path[(i+1)%len(path)]
		if !t.HasEdge(u, v) {
			return fmt.Errorf("embedding: consecutive pair (%d, %d) is not an edge", u, v)
		}
	}
	return nil
}
