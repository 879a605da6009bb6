package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/topology"
)

// FaultSweepPoint is one measurement of the E18 fault sweep: degraded
// D_prefix on D_n under a seeded plan of f permanent link faults.
type FaultSweepPoint struct {
	N             int   `json:"n"`
	Nodes         int   `json:"nodes"`
	Faults        int   `json:"faults"`
	Seed          int64 `json:"seed"`
	CommMeasured  int   `json:"comm_measured"`
	CommFaultFree int   `json:"comm_fault_free"`
	CommBound     int   `json:"comm_bound"`
	Overhead      int   `json:"overhead_cycles"`
	Detours       int   `json:"detours"`
	LongestDetour int   `json:"longest_detour_hops"`
	Messages      int64 `json:"messages"`
	DownLinks     int   `json:"down_links_directed"`
	Correct       bool  `json:"correct"`
}

// FaultSweep measures degraded D_prefix for n in [minN, maxN] and every
// f = 0..n-1 link faults, one seeded random plan per point. Each point
// verifies the prefixes against the sequential scan.
func FaultSweep(minN, maxN int, seed int64) ([]FaultSweepPoint, error) {
	var points []FaultSweepPoint
	for n := minN; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return nil, fmt.Errorf("E18 n=%d: %w", n, err)
		}
		in := randInts(int64(n+300), d.Nodes(), -1000, 1000)
		for f := 0; f < n; f++ {
			planSeed := seed + int64(1000*n+f)
			plan := fault.Random(d, f, planSeed)
			got, st, err := prefix.DPrefixDegraded(machine.Config{}, d, in, monoid.Sum[int](), true, plan)
			if err != nil {
				return nil, fmt.Errorf("E18 n=%d f=%d: %w", n, f, err)
			}
			correct := true
			acc := 0
			for i, v := range in {
				acc += v
				if got[i] != acc {
					correct = false
					break
				}
			}
			base, err := dcomm.Compiled(d, dcomm.OpPrefix)
			if err != nil {
				return nil, fmt.Errorf("E18 n=%d f=%d: %w", n, f, err)
			}
			sch, err := dcomm.RewriteFT(base, fault.NewView(d, plan))
			if err != nil {
				return nil, fmt.Errorf("E18 n=%d f=%d: %w", n, f, err)
			}
			detours, longest := 0, 0
			for _, dt := range dcomm.PatternDetours(sch) {
				detours++
				if hops := len(dt.Path) - 1; hops > longest {
					longest = hops
				}
			}
			points = append(points, FaultSweepPoint{
				N:             n,
				Nodes:         d.Nodes(),
				Faults:        f,
				Seed:          planSeed,
				CommMeasured:  st.Cycles,
				CommFaultFree: prefix.MeasuredCommSteps(n),
				CommBound:     prefix.PaperCommBound(n),
				Overhead:      prefix.DegradedCommOverhead(sch),
				Detours:       detours,
				LongestDetour: longest,
				Messages:      st.Messages,
				DownLinks:     st.Faults.DownLinks,
				Correct:       correct,
			})
		}
	}
	return points, nil
}

// E18FaultSweep renders the fault sweep as the markdown table recorded in
// EXPERIMENTS.md. The "comm bound 2n+1" column is Theorem 1's fault-free
// bound — the measured overhead beyond it is the price of the f detours.
func E18FaultSweep(minN, maxN int, seed int64) (string, error) {
	points, err := FaultSweep(minN, maxN, seed)
	if err != nil {
		return "", err
	}
	t := newTable("E18 — degraded D_prefix under f link faults (seeded plans)",
		"n", "nodes", "f", "comm measured", "fault-free 2n", "bound 2n+1",
		"overhead", "detours", "longest detour", "messages", "correct")
	for _, p := range points {
		ok := "yes"
		if !p.Correct {
			ok = "NO"
		}
		t.row(itoa(p.N), itoa(p.Nodes), itoa(p.Faults), itoa(p.CommMeasured),
			itoa(p.CommFaultFree), itoa(p.CommBound), itoa(p.Overhead),
			itoa(p.Detours), itoa(p.LongestDetour)+" hops", i64toa(p.Messages), ok)
	}
	return t.String(), nil
}

// E18FaultSweepJSON renders the fault sweep as JSON lines (one point per
// line), the machine-readable shape behind dcbench -faults -json.
func E18FaultSweepJSON(minN, maxN int, seed int64) (string, error) {
	points, err := FaultSweep(minN, maxN, seed)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, p := range points {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("E18 json: %w", err)
		}
	}
	return sb.String(), nil
}

// E19FaultTolerance tabulates the connectivity figures of D_n — degree n,
// link connectivity n, so n-1 link faults are always survivable
// (Zhao/Hao/Cheng) — against empirical checks: random f = n-1 plans must
// leave the network connected every time, while the adversarial f = n cut
// (all links of one node) disconnects it, showing the bound is tight.
func E19FaultTolerance(maxN, trials int, seed int64) (string, error) {
	t := newTable("E19 — fault tolerance of D_n (connectivity bounds)",
		"n", "nodes", "degree", "link connectivity", "tolerates",
		fmt.Sprintf("random f=n-1 connected (%d trials)", trials), "f=n node cut disconnects")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E19 n=%d: %w", n, err)
		}
		connected := 0
		for i := 0; i < trials; i++ {
			view := fault.NewView(d, fault.Random(d, n-1, seed+int64(100*n+i)))
			if aliveReach(d, view) == d.Nodes() {
				connected++
			}
		}
		var cut []fault.Link
		for _, w := range d.Neighbors(0) {
			cut = append(cut, fault.Link{U: 0, V: w})
		}
		cutView := fault.NewView(d, &fault.Plan{Links: cut})
		cutOK := "yes"
		if aliveReach(d, cutView) == d.Nodes() {
			cutOK = "NO"
		}
		t.row(itoa(n), itoa(d.Nodes()), itoa(d.Order()), itoa(d.Order()),
			fmt.Sprintf("%d link faults", d.Order()-1),
			fmt.Sprintf("%d/%d", connected, trials), cutOK)
	}
	return t.String(), nil
}

// E19TopologyFaultTolerance tabulates, for every communication family
// (dual-cube, hypercube Q_{2n-1}, Z-cube Z_n), the connectivity figures the
// topology layer publishes — node connectivity κ, link connectivity λ, and
// the generalized 3-(edge-)connectivities κ₃/λ₃ where established — and the
// maximum provably tolerable number of link faults, λ-1. Each bound is
// checked empirically: random plans of exactly λ-1 link faults must leave
// the network connected in every trial. The source of each family's figures
// is printed below the table so a bound is never separated from its
// justification.
func E19TopologyFaultTolerance(maxN, trials int, seed int64) (string, error) {
	t := newTable("E19 — max tolerable link faults per topology (generalized connectivity)",
		"family", "name", "nodes", "degree", "κ", "λ", "κ₃", "λ₃", "tolerates",
		fmt.Sprintf("random f=λ-1 connected (%d trials)", trials))
	var sources []string
	seen := make(map[string]bool)
	for _, family := range topology.Families() {
		for n := 1; n <= maxN; n++ {
			c, err := topology.CommByID(family, n)
			if err != nil {
				return "", fmt.Errorf("E19 %s n=%d: %w", family, n, err)
			}
			conn := c.Connectivity()
			f := conn.MaxTolerableLinkFaults()
			connected := 0
			for i := 0; i < trials; i++ {
				view := fault.NewView(c, fault.Random(c, f, seed+int64(100*n+i)))
				if aliveReach(c, view) == c.Nodes() {
					connected++
				}
			}
			opt := func(v int) string {
				if v == 0 {
					return "-"
				}
				return itoa(v)
			}
			t.row(family, c.Name(), itoa(c.Nodes()), itoa(c.Degree(0)),
				itoa(conn.Node), itoa(conn.Link), opt(conn.Tree3Node), opt(conn.Tree3Link),
				fmt.Sprintf("%d link faults", f),
				fmt.Sprintf("%d/%d", connected, trials))
			if conn.Source != "" && !seen[conn.Source] {
				seen[conn.Source] = true
				sources = append(sources, fmt.Sprintf("  %s: %s", family, conn.Source))
			}
		}
	}
	s := t.String() + "sources of the connectivity figures:\n"
	for _, src := range sources {
		s += src + "\n"
	}
	return s, nil
}

// aliveReach counts the nodes reachable from node 0 over links the view
// considers alive.
func aliveReach(d topology.Topology, view *fault.View) int {
	seen := make([]bool, d.Nodes())
	seen[0] = true
	frontier := []int{0}
	count := 1
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for _, w := range d.Neighbors(u) {
				if seen[w] || view.LinkDown(u, w) {
					continue
				}
				seen[w] = true
				count++
				next = append(next, w)
			}
		}
		frontier = next
	}
	return count
}
