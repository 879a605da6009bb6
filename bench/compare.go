package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric names,
// units, directions and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent.
func loadSpec() (*spec, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// series is one metric of one workload across the runs of a set.
type series struct {
	unit   string
	values []float64
}

// setStats groups a set's records by workload and metric; failed and
// attempted sum the calls of each workload.
// Traced runs of a workload group apart from its untraced runs.
type setStats struct {
	metrics           map[string]map[string]*series // workload -> metric -> values
	order             map[string][]string           // workload -> metric names, first-seen order
	failed, attempted map[string]int
	traced            map[string]bool
}

func group(recs []*record) *setStats {
	s := &setStats{
		metrics:   make(map[string]map[string]*series),
		order:     make(map[string][]string),
		failed:    make(map[string]int),
		attempted: make(map[string]int),
		traced:    make(map[string]bool),
	}
	for _, r := range recs {
		w := r.Workload
		if r.Trace {
			w += " (traced)"
			s.traced[w] = true
		}
		if s.metrics[w] == nil {
			s.metrics[w] = make(map[string]*series)
		}
		s.failed[w] += r.Failed
		s.attempted[w] += r.Attempted
		for _, m := range append(append([]metric(nil), r.Metrics...), r.Diag...) {
			sr := s.metrics[w][m.Name]
			if sr == nil {
				sr = &series{unit: m.Unit}
				s.metrics[w][m.Name] = sr
				s.order[w] = append(s.order[w], m.Name)
			}
			sr.values = append(sr.values, m.Value)
		}
	}
	return s
}

// compareSets prints, per workload and metric, the median and quartiles of
// each set of runs and the change of the second set's median. It flags an
// end-to-end metric that got worse by more than its bound in BENCHMARK.json,
// and a workload whose failed fraction rose; other metrics are listed
// unflagged. It also reports how far the host floor moved between the sets,
// which tells a slower host apart from slower code. It returns the number of
// flags.
func compareSets(w io.Writer, pathA, pathB string) (int, error) {
	sp, err := loadSpec()
	if err != nil {
		return 0, err
	}
	gated := make(map[string]specMetric)
	for _, m := range sp.EndToEnd {
		gated[m.Name] = m
	}
	better := make(map[string]string)
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		better[m.Name] = m.Better
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	a, b := group(ra), group(rb)

	flags := 0
	for _, wl := range sortedKeys(a.metrics) {
		if b.metrics[wl] == nil {
			fmt.Fprintf(w, "== %s: only in %s\n", wl, pathA)
			continue
		}
		fmt.Fprintf(w, "== %s  (A: %s, B: %s)\n", wl, pathA, pathB)
		fmt.Fprintf(w, "%-34s %-6s %12s %12s %12s   %12s %12s %12s %9s %7s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "bound")
		for _, name := range a.order[wl] {
			sa, sb := a.metrics[wl][name], b.metrics[wl][name]
			if sb == nil {
				continue
			}
			a1, a3 := quartiles(sa.values)
			b1, b3 := quartiles(sb.values)
			am, bm := median(sa.values), median(sb.values)
			change := 0.0
			if am != bm {
				change = bm/am - 1
			}
			bound, mark := "-", ""
			if g, ok := gated[name]; ok && !a.traced[wl] {
				bound = fmt.Sprintf("%.2f", g.Bound)
				if worse(change, g.Better) > g.Bound {
					mark = "  WORSE"
					flags++
				}
			}
			if better[name] == "" && name != "failed_frac" {
				bound = "diag"
			}
			fmt.Fprintf(w, "%-34s %-6s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g %+8.1f%% %7s%s\n",
				name, sa.unit, a1, am, a3, b1, bm, b3, 100*change, bound, mark)
		}
		fa := float64(a.failed[wl]) / math.Max(1, float64(a.attempted[wl]))
		fb := float64(b.failed[wl]) / math.Max(1, float64(b.attempted[wl]))
		if fb > fa {
			fmt.Fprintf(w, "failed fraction rose: %.6f -> %.6f  FAILED\n", fa, fb)
			flags++
		}
		if fl, ok := a.metrics[wl]["host.floor_us"]; ok && b.metrics[wl]["host.floor_us"] != nil {
			shift := median(b.metrics[wl]["host.floor_us"].values)/median(fl.values) - 1
			fmt.Fprintf(w, "host.floor_us shift B vs A: %+.1f%% (positive: B ran on a slower host)\n", 100*shift)
		}
	}
	fmt.Fprintf(w, "flagged: %d\n", flags)
	return flags, nil
}

// worse returns by how much a relative change is a worsening, given which
// direction is better; an improvement is negative.
func worse(change float64, better string) float64 {
	if better == "higher" {
		return -change
	}
	return change
}
