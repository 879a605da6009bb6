package machine

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Event is one message observed by the recorder: sent from Src to Dst
// during clock cycle Cycle (0-based).
type Event struct {
	Cycle int
	Src   int
	Dst   int
}

// Recording is the full message log of one run plus per-link totals. It is
// produced by Engine.RunRecorded and consumed by the space-time renderer
// and the link-load experiment (E14).
type Recording struct {
	Events    []Event // all messages, ordered by (cycle, src)
	Cycles    int
	LinkLoads map[[2]int]int // directed link -> total messages
}

// MaxLinkLoad returns the largest number of messages carried by any single
// directed link over the whole run, and one such link.
func (r *Recording) MaxLinkLoad() (load int, link [2]int) {
	for l, c := range r.LinkLoads {
		if c > load || (c == load && (l[0] < link[0] || (l[0] == link[0] && l[1] < link[1]))) {
			load, link = c, l
		}
	}
	return load, link
}

// SplitLoads aggregates total messages by a link classifier (for example
// cross-edge vs intra-cluster). The map key is the classifier's label.
func (r *Recording) SplitLoads(classify func(src, dst int) string) map[string]int {
	out := map[string]int{}
	for l, c := range r.LinkLoads {
		out[classify(l[0], l[1])] += c
	}
	return out
}

// RenderSpaceTime writes an ASCII space-time diagram: one row per cycle,
// one column per node, with S marking a send, R a receive-only endpoint,
// and B both. Intended for small machines (the Figure-scale examples).
func (r *Recording) RenderSpaceTime(w io.Writer, nodes int) error {
	if nodes > 64 {
		return fmt.Errorf("machine: space-time rendering capped at 64 nodes, got %d", nodes)
	}
	byCycle := make([][]Event, r.Cycles)
	for _, ev := range r.Events {
		byCycle[ev.Cycle] = append(byCycle[ev.Cycle], ev)
	}
	fmt.Fprint(w, "cycle ")
	for u := 0; u < nodes; u++ {
		fmt.Fprintf(w, "%2d ", u)
	}
	fmt.Fprintln(w)
	for cyc, evs := range byCycle {
		row := make([]byte, nodes)
		for i := range row {
			row[i] = '.'
		}
		for _, ev := range evs {
			mark := func(u int, c byte) {
				switch {
				case row[u] == '.':
					row[u] = c
				case row[u] != c:
					row[u] = 'B'
				}
			}
			mark(ev.Src, 'S')
			mark(ev.Dst, 'R')
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%5d ", cyc)
		for _, c := range row {
			fmt.Fprintf(&sb, " %c ", c)
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// RunRecorded is Engine.Run with message recording enabled: every send is
// logged as an Event. Recording costs one slice append per message on the
// sending node; the log is assembled deterministically after the run.
func (e *Engine[T]) RunRecorded(sch *Schedule, kern DirectKernel[T]) (Stats, *Recording, error) {
	if err := sch.checkFinalized(); err != nil {
		return Stats{Nodes: e.n}, nil, err
	}
	return e.runRecorded(kernelProgram(sch, kern))
}

// runRecorded runs program with the recording send hook.
func (e *Engine[T]) runRecorded(program func(c *ctx[T])) (Stats, *Recording, error) {
	perNode := make([][]Event, e.n)
	st, err := e.run(program, func(c *ctx[T], dst int) {
		perNode[c.id] = append(perNode[c.id], Event{Cycle: c.cycle, Src: c.id, Dst: dst})
	})
	if err != nil {
		return st, nil, err
	}
	rec := &Recording{Cycles: st.Cycles, LinkLoads: map[[2]int]int{}}
	for _, evs := range perNode {
		rec.Events = append(rec.Events, evs...)
	}
	sort.Slice(rec.Events, func(i, j int) bool {
		if rec.Events[i].Cycle != rec.Events[j].Cycle {
			return rec.Events[i].Cycle < rec.Events[j].Cycle
		}
		return rec.Events[i].Src < rec.Events[j].Src
	})
	for _, ev := range rec.Events {
		rec.LinkLoads[[2]int{ev.Src, ev.Dst}]++
	}
	return st, rec, nil
}
