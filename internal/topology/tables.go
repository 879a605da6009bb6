package topology

import "sync"

// Tables is the node table set of one dual-cube order: every fact the
// cluster-technique kernels read about a node, precomputed once so a kernel
// step indexes an array instead of re-deriving the address arithmetic
// through a Comm method per (step, node). Algorithm 2's roles are fixed for
// the whole run — a node's class, its ID inside its cluster and its slot in
// the block data layout never change — so the tables are immutable and
// shared by every caller, concurrently.
//
// The three Comm families share one decomposition (the odd hypercube and
// the Z-cube delegate theirs to the spanning dual-cube), so one table set
// per order serves all three. Sizes are narrow: 20 bytes per node in all.
type Tables struct {
	// Node[u] is node u's role: data index, local ID, cluster ID and class.
	Node []NodeRole
	// AtData[i] is the node holding element i of the block data layout
	// (NodeAtDataIndex(i)).
	AtData []int32
	// Key[c][i] is the all-to-all router's routing key at a class-c node for
	// an item bound for element i: the part of NodeAtDataIndex(i) that a
	// class-c node's local ID occupies — part I for class 0, part II for
	// class 1.
	Key [2][]uint16
}

// NodeRole is one node's entry of Tables.Node. Local and cluster IDs have
// at most MaxDualCubeOrder-1 = 13 bits.
type NodeRole struct {
	Data    int32  // DataIndex(u)
	Local   uint16 // LocalID(u)
	Cluster uint16 // ClusterID(u)
	Class   uint8  // Class(u)
}

// tableSet is one order's lazily built table set.
type tableSet struct {
	once sync.Once
	t    *Tables
}

// get returns the set, building it from d on the first call.
func (s *tableSet) get(d *DualCube) *Tables {
	s.once.Do(func() { s.t = d.buildTables() })
	return s.t
}

// tableSets holds the table set of each order, built on first use: D_14
// has 2^27 nodes, so nothing is built before a caller asks.
var tableSets [MaxDualCubeOrder + 1]tableSet

// Tables implements Comm: the node table set of D_n, built on the first
// call for its order and shared by every later one.
func (d *DualCube) Tables() *Tables { return tableSets[d.n].get(d) }

func (d *DualCube) buildTables() *Tables {
	n := d.Nodes()
	t := &Tables{
		Node:   make([]NodeRole, n),
		AtData: make([]int32, n),
		Key:    [2][]uint16{make([]uint16, n), make([]uint16, n)},
	}
	for u := range t.Node {
		t.Node[u] = NodeRole{
			Data:    int32(d.DataIndex(u)),
			Local:   uint16(d.LocalID(u)),
			Cluster: uint16(d.ClusterID(u)),
			Class:   uint8(d.Class(u)),
		}
	}
	for i := range t.AtData {
		v := d.NodeAtDataIndex(i)
		t.AtData[i] = int32(v)
		t.Key[0][i] = uint16(d.field0(v))
		t.Key[1][i] = uint16(d.field1(v))
	}
	return t
}
