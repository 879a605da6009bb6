package fixture

import (
	"dualcube/internal/topology"
)

// goodGeneric speaks only the Comm interface — the shape every schedule
// builder entry point must keep. Nothing here is flagged.
func goodGeneric(c topology.Comm) []topology.NodeID {
	out := make([]topology.NodeID, 0, c.Nodes())
	for u := topology.NodeID(0); int(u) < c.Nodes(); u++ {
		out = append(out, c.CrossNeighbor(u))
	}
	return out
}

// goodLookup resolves a topology by family name, never by concrete type.
func goodLookup() (topology.Comm, error) {
	for _, fam := range topology.Families() {
		if fam == "zcube" {
			return topology.CommByID(fam, 3)
		}
	}
	return topology.CommByID("dualcube", 3)
}

// goodRecursive uses the recursive presentation through the Comm interface.
func goodRecursive(d topology.Comm) bool {
	return d.RecDirect(0, d.RecDims()-1)
}
