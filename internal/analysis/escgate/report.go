package escgate

import (
	"encoding/json"
	"io"
)

// Report is the machine-readable escape/BCE summary emitted by
// `dcvet -escgate -json`: module-wide totals, per-function counts for every
// budget-tracked function, the serving entry points (the API surface whose
// steady-state allocation behavior the alloc-guard tests watch), and the
// files with the most escape sites — the worklist for future tightening.
type Report struct {
	GoVersion string            `json:"goVersion"`
	Totals    Counts            `json:"totals"`
	Tracked   map[string]Counts `json:"tracked"`
	Serve     map[string]Counts `json:"serve"`
	TopFiles  []FileEscapes     `json:"topEscapeFiles"`
	Failures  []string          `json:"failures"`
	Notices   []string          `json:"notices"`
}

// serveEntryPoints is the root-package serving surface covered by the
// report regardless of budget membership.
var serveEntryPoints = []string{
	"dualcube.PrefixOn",
	"dualcube.BroadcastOn",
	"dualcube.AllReduceSumOn",
	"dualcube.GatherOn",
	"dualcube.ScatterOn",
	"dualcube.AllGatherOn",
	"dualcube.AllToAllOn",
	"dualcube.PermuteOn",
}

// BuildReport assembles the report from one Collect/Attribute run.
func BuildReport(goMinor string, diags []Diag, counts map[string]*Counts, b Budget, failures, notices []string) *Report {
	r := &Report{
		GoVersion: goMinor,
		Totals:    Totals(counts),
		Tracked:   make(map[string]Counts),
		Serve:     make(map[string]Counts),
		TopFiles:  TopEscapeFiles(diags, 15),
		Failures:  failures,
		Notices:   notices,
	}
	if vb, ok := b[goMinor]; ok {
		for _, fn := range vb.Zero {
			r.Tracked[fn] = deref(counts[fn])
		}
		for fn := range vb.Budgets {
			r.Tracked[fn] = deref(counts[fn])
		}
	}
	for _, fn := range serveEntryPoints {
		r.Serve[fn] = deref(counts[fn])
	}
	return r
}

func deref(c *Counts) Counts {
	if c == nil {
		return Counts{}
	}
	return *c
}

// Write emits the report as indented JSON with deterministic key order
// (encoding/json sorts map keys).
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
