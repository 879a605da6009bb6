package topology

// checkSymmetric verifies that the adjacency relation of t is symmetric and
// irreflexive (no self-loops) and that Neighbors is duplicate-free. It
// returns a non-nil error describing the first violation found.
func checkSymmetric(t Topology) error {
	n := t.Nodes()
	for u := 0; u < n; u++ {
		seen := make(map[NodeID]bool, t.Degree(u))
		for _, v := range t.Neighbors(u) {
			if v == u {
				return &graphError{Op: "checkSymmetric", U: u, V: v, Msg: "self-loop"}
			}
			if v < 0 || v >= n {
				return &graphError{Op: "checkSymmetric", U: u, V: v, Msg: "neighbor out of range"}
			}
			if seen[v] {
				return &graphError{Op: "checkSymmetric", U: u, V: v, Msg: "duplicate neighbor"}
			}
			seen[v] = true
			if !t.HasEdge(v, u) {
				return &graphError{Op: "checkSymmetric", U: u, V: v, Msg: "asymmetric edge"}
			}
		}
	}
	return nil
}

// graphError describes a structural violation found by a topology check.
type graphError struct {
	Op  string // the check that failed
	U   NodeID // first node involved
	V   NodeID // second node involved (or -1)
	Msg string // description of the violation
}

func (e *graphError) Error() string {
	return e.Op + ": " + e.Msg + " (u=" + itoa(e.U) + ", v=" + itoa(e.V) + ")"
}

// isConnected reports whether t is connected (every node reachable from 0).
func isConnected(t Topology) bool {
	if t.Nodes() == 0 {
		return true
	}
	for _, d := range BFSDistances(t, 0) {
		if d < 0 {
			return false
		}
	}
	return true
}
