package dualcube

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRuntimeConcurrent drives one shared Runtime from many goroutines with
// a mix of operations and requires every result — outputs and the full
// Stats — to be byte-identical to the serial run. Every run keeps its
// payloads in state of its own, and the topology and compiled schedules
// are immutable, so concurrent use must be race-free (the CI race step runs
// this under -race) and deterministic. The gather and all-to-all rows also
// run on a Z-cube Runtime of the same order, which shares the dual-cube's
// plane stash (keyed by node count) and arena layout (keyed by order), and
// must reproduce the dual-cube's results.
func TestRuntimeConcurrent(t *testing.T) {
	const n = 3
	rt, err := NewRuntime(n)
	if err != nil {
		t.Fatal(err)
	}
	zt, err := NewRuntimeOn("zcube", n)
	if err != nil {
		t.Fatal(err)
	}
	rt.Warm()
	zt.Warm()
	N := rt.Nodes()
	in := make([]int, N)
	keys := make([]int, N)
	mat := make([][]int, N)
	for i := range in {
		in[i] = i*37 + 5
		keys[i] = N - i
		mat[i] = make([]int, N)
		for j := range mat[i] {
			mat[i][j] = i*N + j
		}
	}

	// Each Z-cube row follows the dual-cube row it must reproduce.
	ops := []struct {
		name string
		run  func() (any, Stats, error)
	}{
		{"prefix", func() (any, Stats, error) { out, st, err := PrefixOn(rt, in); return out, st, err }},
		{"sort", func() (any, Stats, error) { out, st, err := SortOn(rt, keys, Ascending); return out, st, err }},
		{"allreduce", func() (any, Stats, error) { out, st, err := AllReduceSumOn(rt, in); return out, st, err }},
		{"broadcast", func() (any, Stats, error) { out, st, err := BroadcastOn(rt, 5, 42); return out, st, err }},
		{"gather", func() (any, Stats, error) { out, st, err := GatherOn(rt, 1, in); return out, st, err }},
		{"gather/zcube", func() (any, Stats, error) { out, st, err := GatherOn(zt, 1, in); return out, st, err }},
		{"alltoall", func() (any, Stats, error) { out, st, err := AllToAllOn(rt, mat); return out, st, err }},
		{"alltoall/zcube", func() (any, Stats, error) { out, st, err := AllToAllOn(zt, mat); return out, st, err }},
	}

	// Serial references.
	want := make([]any, len(ops))
	wantSt := make([]Stats, len(ops))
	for i, op := range ops {
		if want[i], wantSt[i], err = op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if strings.HasSuffix(op.name, "/zcube") && (wantSt[i] != wantSt[i-1] || !reflect.DeepEqual(want[i], want[i-1])) {
			t.Fatalf("%s: serial run differs from the dual-cube's", op.name)
		}
	}

	const workers = 8
	const iters = 4
	errs := make(chan error, workers*iters)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (w + it) % len(ops)
				out, st, err := ops[i].run()
				switch {
				case err != nil:
				case st != wantSt[i]:
					err = fmt.Errorf("%s: stats diverge from serial run:\n  serial:     %+v\n  concurrent: %+v", ops[i].name, wantSt[i], st)
				case !reflect.DeepEqual(out, want[i]):
					err = fmt.Errorf("%s: outputs diverge from serial run", ops[i].name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRuntimeSharesCaches checks that independently constructed Runtimes of
// the same order and the package-default Runtime all share the one cached
// topology instance.
func TestRuntimeSharesCaches(t *testing.T) {
	a, err := NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	if a.c != b.c {
		t.Error("two Runtimes of order 4 hold distinct topology instances")
	}
	def, err := defaultRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	if def.c != a.c {
		t.Error("package-default Runtime holds a distinct topology instance")
	}
}

// TestRuntimeRejectsBadOrder checks the shared range error surfaces through
// NewRuntime and the one-shot wrappers alike.
func TestRuntimeRejectsBadOrder(t *testing.T) {
	for _, n := range []int{0, -1, 15} {
		if _, err := NewRuntime(n); err == nil {
			t.Errorf("NewRuntime(%d): accepted, want error", n)
		}
		if _, _, err := Prefix(n, []int{}); err == nil {
			t.Errorf("Prefix(%d): accepted, want error", n)
		}
	}
}
