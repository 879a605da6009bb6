package experiments

import "strings"

// The experiment registry is the single source of truth for what
// experiments exist and how to run them. cmd/dcbench derives its -exp
// dispatch AND its help string from here, so the flag text can never rot
// out of sync with the experiment set again (it once listed only up to E20
// while E21/E22 already existed); All() walks the same registry.

// Options carries the tunables an experiment's Run may consume; dcbench
// fills it from flags.
type Options struct {
	Seed int64
}

// DefaultOptions are the values All() and plain `dcbench -exp En` use.
func DefaultOptions() Options {
	return Options{Seed: 2008}
}

// Experiment is one registry entry. Run is nil for experiments that live
// outside dcbench (Go benchmarks, the repository benchmark's workloads);
// HowTo then says how to reproduce them.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (string, error)
	HowTo string
	// InAll marks the experiments `dcbench` with no flags concatenates.
	InAll bool
}

// registry lists every experiment in EXPERIMENTS.md order. E9 and E10
// share one table (comm steps and overhead come from the same sweep), so
// both IDs appear and only E9 is InAll.
var registry = []Experiment{
	{ID: "E2", Title: "topology structure checks", InAll: true,
		Run: func(Options) (string, error) { return E2Topology(8, 4) }},
	{ID: "E4", Title: "D_prefix comm/comp steps (Theorem 1)", InAll: true,
		Run: func(Options) (string, error) { return E4Prefix(7) }},
	{ID: "E5", Title: "hypercube prefix baseline", InAll: true,
		Run: func(Options) (string, error) { return E5CubePrefix(13) }},
	{ID: "E8", Title: "D_sort comm steps (Theorem 2)", InAll: true,
		Run: func(Options) (string, error) { return E8Sort(6) }},
	{ID: "E9", Title: "hypercube sort baseline and overhead", InAll: true,
		Run: func(Options) (string, error) { return E9E10CubeSortAndOverhead(6) }},
	{ID: "E10", Title: "sort overhead vs hypercube (same table as E9)",
		Run: func(Options) (string, error) { return E9E10CubeSortAndOverhead(6) }},
	{ID: "E11", Title: "dual-cube vs hypercube at equal node count", InAll: true,
		Run: func(Options) (string, error) { return E11Compare() }},
	{ID: "E12", Title: "large-vector prefix (k elements per node)", InAll: true,
		Run: func(Options) (string, error) { return E12Large(3, []int{1, 4, 16, 64}) }},
	{ID: "E13", Title: "collective operations sweep", InAll: true,
		Run: func(Options) (string, error) { return E13Collectives(7) }},
	{ID: "E14", Title: "per-link load balance", InAll: true,
		Run: func(Options) (string, error) { return E14LinkLoads(5) }},
	{ID: "E16", Title: "hypercube algorithm emulation", InAll: true,
		Run: func(Options) (string, error) { return E16Emulation(5) }},
	{ID: "E17", Title: "sample sort over D_sort", InAll: true,
		Run: func(Options) (string, error) { return E17SampleSort(5, 16) }},
	{ID: "E18", Title: "seeded fault sweep (degraded D_prefix)", InAll: true,
		Run: func(o Options) (string, error) { return E18FaultSweep(4, 6, o.Seed) }},
	{ID: "E19", Title: "fault-tolerance success-rate trials", InAll: true,
		Run: func(o Options) (string, error) { return E19FaultTolerance(6, 20, o.Seed) }},
	{ID: "E20", Title: "cold-vs-warm per-call wall time",
		HowTo: "bash bench/run.sh --workload lib-scan (setup_s: a fresh process's construction, Warm and first call; call_p10_us: the warm call)"},
	{ID: "E21", Title: "direct kernel executor vs simulator engines",
		HowTo: "go test -bench BenchmarkSchedulers -benchmem ."},
	{ID: "E22", Title: "sort family on the direct executor",
		HowTo: "go test -bench BenchmarkE22SortSchedulers -benchtime 20x ."},
	{ID: "E23", Title: "batched serving throughput (request coalescing)",
		HowTo: "bash bench/run.sh --workload serve-mix (calls_per_s and sat_rps: batched throughput; batch_mean.{lo,hi,sat}: the coalescing)"},
	{ID: "E24", Title: "arena payload plane for the v-collectives (before/after)",
		HowTo: "bash bench/run.sh -record A.json at the parent and -record B.json at the change, then bash bench/run.sh -compare A.json B.json; go test -run TestWarmRuntimeAllocGuard -v ."},
}

// Find resolves an experiment by ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDList renders every registered ID comma-separated — the -exp help
// string's experiment list, derived so it cannot rot.
func IDList() string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}

// All runs every InAll experiment at its default scale and concatenates
// the tables. This is what cmd/dcbench prints and what EXPERIMENTS.md
// records.
func All() (string, error) {
	var sb strings.Builder
	opts := DefaultOptions()
	for _, e := range registry {
		if !e.InAll {
			continue
		}
		s, err := e.Run(opts)
		if err != nil {
			return sb.String(), err
		}
		sb.WriteString(s)
		sb.WriteString("\n")
	}
	return sb.String(), nil
}
