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
	"dualcube/internal/analysis/schedtopo"
	"dualcube/internal/analysis/statsadd"
)

// All returns the full analyzer suite in stable order.
func All() []*driver.Analyzer {
	return []*driver.Analyzer{
		abortpanic.Analyzer,
		kernelpure.Analyzer,
		laneparity.Analyzer,
		schedtopo.Analyzer,
		statsadd.Analyzer,
	}
}
