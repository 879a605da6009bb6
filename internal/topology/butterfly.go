package topology

import "fmt"

// Butterfly is the k-dimensional wrapped butterfly network WBF_k: k levels
// of 2^k rows; node (level, row) connects to (level+1 mod k, row) by a
// straight edge and to (level+1 mod k, row ^ 2^level) by a cross edge.
// 4-regular for k >= 3 (k = 1, 2 degenerate into multigraphs and are
// rejected). Together with CCC, de Bruijn and shuffle-exchange it completes
// the bounded-degree comparison set of the paper's introduction.
type Butterfly struct {
	k int
}

// NewButterfly returns WBF_k for k in [3, 24].
func NewButterfly(k int) (*Butterfly, error) {
	if k < 3 || k > 24 {
		return nil, fmt.Errorf("topology: butterfly order %d out of range [3,24]", k)
	}
	return &Butterfly{k: k}, nil
}

// Dim returns k.
func (b *Butterfly) Dim() int { return b.k }

// Name implements Topology.
func (b *Butterfly) Name() string { return "WBF_" + itoa(b.k) }

// Nodes implements Topology: k * 2^k.
func (b *Butterfly) Nodes() int { return b.k << b.k }

// id packs (level, row) as row*k + level.
func (b *Butterfly) id(level, row int) NodeID { return row*b.k + level }

// unpack splits an ID into level and row.
func (b *Butterfly) unpack(u NodeID) (level, row int) { return u % b.k, u / b.k }

// Degree implements Topology: WBF_k is 4-regular for k >= 3.
func (b *Butterfly) Degree(u NodeID) int { return 4 }

// Neighbors implements Topology: the straight and cross edges to the next
// and previous levels.
func (b *Butterfly) Neighbors(u NodeID) []NodeID {
	level, row := b.unpack(u)
	next := (level + 1) % b.k
	prev := (level + b.k - 1) % b.k
	ns := []NodeID{
		b.id(next, row),
		b.id(next, row^1<<level),
		b.id(prev, row),
		b.id(prev, row^1<<prev),
	}
	sortIDs(ns)
	return ns
}

// HasEdge implements Topology.
func (b *Butterfly) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= b.Nodes() || v >= b.Nodes() || u == v {
		return false
	}
	for _, w := range b.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}
