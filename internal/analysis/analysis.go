// Package analysis registers the repository's custom static checkers — the
// dcvet analyzer suite. Each analyzer guards one invariant the compiler
// cannot see but the simulator's correctness depends on; see DESIGN.md §5.9
// for the catalogue and the bugs that motivated each.
package analysis

import (
	"dualcube/internal/analysis/abortpanic"
	"dualcube/internal/analysis/driver"
	"dualcube/internal/analysis/kernelpure"
	"dualcube/internal/analysis/laneparity"
	"dualcube/internal/analysis/nodebody"
	"dualcube/internal/analysis/schedtopo"
	"dualcube/internal/analysis/statsadd"
)

// All returns the full analyzer suite in stable order.
func All() []*driver.Analyzer {
	return []*driver.Analyzer{
		abortpanic.Analyzer,
		kernelpure.Analyzer,
		laneparity.Analyzer,
		nodebody.Analyzer,
		schedtopo.Analyzer,
		statsadd.Analyzer,
	}
}

// ByName returns the subset of All whose names appear in names (nil names
// selects everything). Unknown names are ignored by the lookup and reported
// by the caller, which has the flag context.
func ByName(names []string) []*driver.Analyzer {
	if names == nil {
		return All()
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*driver.Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
