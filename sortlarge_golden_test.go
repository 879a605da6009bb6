package dualcube

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dualcube/internal/machine"
)

// tieKey is a tie-heavy sort record: tieLess compares only Key (four
// values), so Tag — the record's input position — shows exactly where equal
// keys land.
type tieKey struct {
	Key uint8
	Tag uint16
}

func tieLess(a, b tieKey) bool { return a.Key < b.Key }

func tieInput(n, k int) []tieKey {
	N := 1 << (2*n - 1)
	rng := rand.New(rand.NewSource(int64(100*n + k)))
	in := make([]tieKey, k*N)
	for i := range in {
		in[i] = tieKey{Key: uint8(rng.Intn(4)), Tag: uint16(i)}
	}
	return in
}

// renderSortLargeTies runs SortLargeFuncOn under sched over the tie-heavy
// grid (D_2..D_4, k in {1, 3, 64}, both orders) and renders one line per
// run: the output's tags in order.
func renderSortLargeTies(t *testing.T, sched machine.Sched) ([]byte, error) {
	var b bytes.Buffer
	for n := 2; n <= 4; n++ {
		rt := runtimeWith(t, "dualcube", n, machine.Config{Sched: sched})
		for _, k := range []int{1, 3, 64} {
			for _, ord := range []Order{Ascending, Descending} {
				out, _, err := SortLargeFuncOn(rt, k, tieInput(n, k), tieLess, ord)
				if err != nil {
					return nil, fmt.Errorf("D_%d k=%d %s: %v", n, k, ord, err)
				}
				fmt.Fprintf(&b, "D_%d k=%d %s:", n, k, ord)
				for _, x := range out {
					fmt.Fprintf(&b, " %d", x.Tag)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.Bytes(), nil
}

// TestSortLargeTieGolden pins where SortLargeFunc places equal keys. The
// golden file was rendered by the worker-pool node program that ran
// SortLarge before it became a merge-split kernel on the compiled D_sort
// schedule, so it is never regenerated: every backend must reproduce that
// placement byte for byte (local stable pre-sort; each merge-split favours
// the node's own chunk on ties).
func TestSortLargeTieGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sortlarge_ties.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Parallel()
	for _, backend := range []struct {
		name  string
		sched machine.Sched
	}{
		{"direct", machine.SchedDefault},
		{"worker-pool", machine.SchedWorkerPool},
	} {
		t.Run(backend.name, func(t *testing.T) {
			t.Parallel()
			got, err := renderSortLargeTies(t, backend.sched)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("line %d diverges from the golden tie placement:\n  got:  %.120s\n  want: %.120s", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("golden has %d lines, run rendered %d", len(wl), len(gl))
		})
	}
}
