package experiments

import (
	"fmt"
	"math/rand"

	"dualcube/internal/emulate"
	"dualcube/internal/machine"
	"dualcube/internal/ntt"
	"dualcube/internal/topology"
)

// E16Emulation exercises the recursive technique as a general-purpose
// framework (Section 7: "the algorithms that emulate these hypercube
// algorithms can be developed using the second technique"): a full
// butterfly algorithm — the number-theoretic transform — runs unchanged on
// D_n, with the emulated-vs-native communication ratio approaching the 3x
// worst case.
func E16Emulation(maxN int) (string, error) {
	t := newTable("E16 — normal-algorithm emulation: distributed NTT",
		"n", "points", "D_n comm (6n-5)", "Q_{2n-1} comm", "ratio", "transform correct", "poly-mul correct")
	for n := 1; n <= maxN; n++ {
		d, err := topology.Shared(n)
		if err != nil {
			return "", fmt.Errorf("E16 n=%d: %w", n, err)
		}
		N := d.Nodes()
		rng := rand.New(rand.NewSource(int64(n + 33)))
		in := make([]uint64, N)
		for i := range in {
			in[i] = rng.Uint64() % ntt.Mod
		}
		dual, stD, err := ntt.Transform(machine.Config{}, d, in, false)
		if err != nil {
			return "", fmt.Errorf("E16 n=%d: %w", n, err)
		}
		cube, stQ, err := ntt.CubeTransform(machine.Config{}, 2*n-1, in, false)
		if err != nil {
			return "", fmt.Errorf("E16 cube n=%d: %w", n, err)
		}
		okT := "yes"
		want := ntt.Sequential(in, false)
		for i := range want {
			if dual[i] != want[i] || cube[i] != want[i] {
				okT = "NO"
				break
			}
		}
		okP := "yes"
		if N >= 4 {
			la := N/2 + 1
			lb := N - la
			a := in[:la]
			b := in[la : la+lb]
			prod, _, err := ntt.PolyMul(machine.Config{}, d, a, b)
			if err != nil {
				return "", fmt.Errorf("E16 polymul n=%d: %w", n, err)
			}
			naive := make([]uint64, la+lb-1)
			for i := range a {
				for j := range b {
					naive[i+j] = (naive[i+j] + a[i]%ntt.Mod*(b[j]%ntt.Mod)) % ntt.Mod
				}
			}
			for i := range naive {
				if prod[i] != naive[i] {
					okP = "NO"
					break
				}
			}
		} else {
			okP = "-"
		}
		if stD.Cycles != emulate.CommSteps(n) {
			return "", fmt.Errorf("E16 n=%d: comm %d != %d", n, stD.Cycles, emulate.CommSteps(n))
		}
		t.row(itoa(n), itoa(N), itoa(stD.Cycles), itoa(stQ.Cycles),
			fmt.Sprintf("%.2f", float64(stD.Cycles)/float64(stQ.Cycles)), okT, okP)
	}
	return t.String(), nil
}
