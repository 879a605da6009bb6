// Fixture for the statsadd analyzer: merging two machine.Stats values
// field-by-field (the PR 1 samplesort bug was a bitwise OR per field) must go
// through Stats.Add.
package fixture

import "dualcube/internal/machine"

func badOrMerge(a, b machine.Stats) machine.Stats {
	return machine.Stats{
		Cycles:   a.Cycles | b.Cycles,     // want `field-wise \| of machine.Stats field Cycles`
		Messages: a.Messages | b.Messages, // want `field-wise \| of machine.Stats field Messages`
	}
}

func badAddMerge(a, b machine.Stats) machine.Stats {
	var out machine.Stats
	out.Cycles = a.Cycles + b.Cycles // want `field-wise \+ of machine.Stats field Cycles`
	out.MaxOps = a.MaxOps + b.MaxOps // want `field-wise \+ of machine.Stats field MaxOps`
	return out
}

func badAccumulate(total *machine.Stats, st machine.Stats) {
	total.Messages += st.Messages // want `field-wise \+= of machine.Stats field Messages`
	total.Cycles |= st.Cycles     // want `field-wise \|= of machine.Stats field Cycles`
}

func badFaultStats(a, b machine.Stats) int {
	return a.Faults.DownLinks + b.Faults.DownLinks // want `field-wise \+ of machine.Stats field DownLinks`
}
