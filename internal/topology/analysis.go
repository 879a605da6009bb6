package topology

// Graph analysis used by the experiment harness: breadth-first distances,
// diameter, average distance and connectivity. These are the ground truth
// the dual-cube's closed-form Distance, Diameter and Route are verified
// against (experiment E2).

// BFSDistances returns the distance from src to every node of t, or -1 for
// unreachable nodes.
func BFSDistances(t Topology, src NodeID) []int {
	n := t.Nodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from src (or -1 if some
// node is unreachable).
func Eccentricity(t Topology, src NodeID) int {
	ecc := 0
	for _, d := range BFSDistances(t, src) {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// DiameterBFS computes the diameter of t exactly by running a BFS from
// every node. Intended for the moderate sizes used in tests and tables.
func DiameterBFS(t Topology) int {
	diam := 0
	for u := 0; u < t.Nodes(); u++ {
		if e := Eccentricity(t, u); e > diam {
			diam = e
		} else if e < 0 {
			return -1
		}
	}
	return diam
}

// AverageDistance returns the mean BFS distance over all ordered pairs of
// distinct nodes, or -1 if t is disconnected.
func AverageDistance(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	total := 0
	for u := 0; u < n; u++ {
		for _, d := range BFSDistances(t, u) {
			if d < 0 {
				return -1
			}
			total += d
		}
	}
	return float64(total) / float64(n*(n-1))
}

// Stats bundles the structural figures reported in the comparison tables
// (experiments E2 and E11).
type Stats struct {
	Name     string
	Nodes    int
	Edges    int
	Degree   int  // common degree if regular, max degree otherwise
	Regular  bool // whether all nodes share the same degree
	Diameter int  // exact, by all-pairs BFS
	AvgDist  float64
}

// Analyze computes Stats for t by exhaustive BFS. Cost is O(N·E); keep N in
// the low tens of thousands.
func Analyze(t Topology) Stats {
	deg, reg := IsRegular(t)
	if !reg {
		for u := 0; u < t.Nodes(); u++ {
			if d := t.Degree(u); d > deg {
				deg = d
			}
		}
	}
	return Stats{
		Name:     t.Name(),
		Nodes:    t.Nodes(),
		Edges:    EdgeCount(t),
		Degree:   deg,
		Regular:  reg,
		Diameter: DiameterBFS(t),
		AvgDist:  AverageDistance(t),
	}
}
