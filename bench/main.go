// Command bench is the repository's benchmark: five workloads, from a warm
// library call to a loopback HTTP request, measured end to end with the
// outputs checked against internal/seq, plus a traced run that times each
// layer from outside. See README.md for the workloads and metrics.
//
// Run it through bench/run.sh from the repository root, which builds it:
//
//	bash bench/run.sh -seed 1                          # all workloads, ~2 min
//	bash bench/run.sh --workload lib-scan --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload lib-scan --trace 1 --spans spans.json
//	bash bench/run.sh -compare set1.json set2.json     # sets written by -record
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// output was right, 1 when any call failed or returned a wrong answer, and 2
// when the benchmark could not run.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	rounds = 3           // measured rounds per run, each in a fresh process
	probes = 10          // setup probes before each round, each in a fresh process
	warmup = time.Second // checked calls run before each measured window
	slices = 10          // equal slices of a round's throughput phase
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; all five, interleaved by round, when empty")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: the workload's window times 3 rounds)")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the traced window's spans to this file")
	recordTo := fs.String("record", "", "append one JSON record per workload to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two record files given as arguments")
	child := fs.String("child", "", "internal: run one setup, run or trace probe and print its JSON")
	window := fs.Duration("window", 0, "internal: measured window of a child")
	budget := fs.Duration("ledger", 0, "internal: time budget of a trace child's ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		flags, err := compareSets(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if flags > 0 {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if err := findRepo(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *child != "" {
		return runChild(stdout, *child, ws[0], *seed, *window, *budget, *spans)
	}

	total := func(w *workload) time.Duration {
		if *seconds > 0 {
			return time.Duration(*seconds * float64(time.Second))
		}
		return rounds * w.window
	}
	var recs []*record
	var err error
	if *trace == 1 {
		recs, err = runTraced(ws, *seed, total, *spans)
	} else {
		recs, err = runUntraced(ws, *seed, total)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, rec := range recs {
		printRecord(stdout, rec)
	}
	if *recordTo != "" {
		if err := appendRecords(*recordTo, recs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	res := summarize(recs, len(ws) > 1)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// findRepo checks that the working directory is a checkout of the module
// the benchmark measures, so a copy of the benchmark alone fails early.
func findRepo() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if _, err := os.Stat("internal/serve"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// hostInfo describes the machine a record was measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// record is the outcome of one workload in one run: the gated metrics (the
// end-to-end ones, or the per-layer ones of a traced run) and diagnostics.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Host      hostInfo `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Diag      []metric `json:"diag"`
	Errors    []string `json:"errors,omitempty"`
}

// ---- children ----

// childOut is what a child process prints as its last line.
type childOut struct {
	Round     *round   `json:"round,omitempty"`
	SetupS    float64  `json:"setup_s,omitempty"`
	FloorUS   float64  `json:"floor_us,omitempty"`
	Metrics   []metric `json:"metrics,omitempty"`
	Diag      []metric `json:"diag,omitempty"`
	Attempted int      `json:"attempted,omitempty"`
	Failed    int      `json:"failed,omitempty"`
	Errors    []string `json:"errors,omitempty"`
	Err       string   `json:"error,omitempty"`
}

func runChild(stdout io.Writer, kind string, w *workload, seed int64, window, budget time.Duration, spans string) int {
	emit := func(out *childOut) int {
		b, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	switch kind {
	case "setup":
		// The process is fresh, so construction and Warm start cold. Setup
		// runs from here to the first verified result, less the time spent
		// drawing inputs. The host floor is timed just before, so the parent
		// can rescale the probe to a fixed host speed.
		fl := floorUS()
		t0 := time.Now()
		sys, gen, err := w.open(fullSizes, seed)
		if err == nil {
			err = sys.first()
		}
		out := &childOut{SetupS: (time.Since(t0) - gen).Seconds(), FloorUS: fl}
		if sys != nil {
			sys.close()
		}
		if err != nil {
			out.Err = err.Error()
		}
		return emit(out)
	case "run":
		sys, _, err := w.open(fullSizes, seed)
		if err != nil {
			return emit(&childOut{Err: err.Error()})
		}
		defer sys.close()
		return emit(&childOut{Round: measureRound(sys, window, warmup)})
	case "trace":
		out, err := traced(w, fullSizes, seed, window, budget, warmup, spans)
		if err != nil {
			return emit(&childOut{Err: err.Error()})
		}
		return emit(out)
	}
	fmt.Fprintf(os.Stderr, "bench: unknown child %q\n", kind)
	return 2
}

// measureRound warms sys up for warm, then measures it for window. Warm-up
// calls are checked too; their counts land in the "warmup" phase.
func measureRound(sys system, window, warm time.Duration) *round {
	wr := newRound()
	sys.measure(warm, wr, nil)
	runtime.GC()
	r := newRound()
	sys.measure(window, r, nil)
	r.Phases["warmup"] = summaryPhase(wr)
	return r
}

// summaryPhase folds a round into one phase holding only its counts.
func summaryPhase(r *round) *phase {
	a, f := r.failures()
	p := &phase{Done: a - f, Failed: f}
	for _, ph := range r.Phases {
		p.Errors = append(p.Errors, ph.Errors...)
	}
	return p
}

// floorUS is the median host floor in µs.
func floorUS() float64 {
	xs := make([]float64, 15)
	for i := range xs {
		xs[i] = us(hostFloor())
	}
	return median(xs)
}

// traced is the trace child: the workload untraced and then traced for
// window each, then the ledger. It reports the per-layer metrics.
func traced(w *workload, sz sizes, seed int64, window, budget, warm time.Duration, spansPath string) (*childOut, error) {
	sys, _, err := w.open(sz, seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	var fails counter
	wr := newRound()
	sys.measure(warm, wr, nil)
	fails.addRound(wr)

	runtime.GC()
	g0 := readGo()
	plain := newRound()
	sys.measure(window, plain, nil)
	g1 := readGo()
	fails.addRound(plain)

	tr := newTracer()
	traced := newRound()
	sys.measure(window, traced, tr)
	fails.addRound(traced)

	stopTicks := startTicks()
	layers, lf, err := runLedger(sz, seed, budget)
	ticks := stopTicks()
	if err != nil {
		return nil, err
	}
	fails.attempted += lf.attempted
	fails.failed += lf.failed
	fails.errors = append(fails.errors, lf.errors...)

	calls, _ := plain.failures()
	out := &childOut{Metrics: layers, Attempted: fails.attempted, Failed: fails.failed, Errors: fails.errors}
	put := func(name, unit string, v float64, n int) {
		out.Metrics = append(out.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
	}
	put("go.allocs_per_call", "count", (g1.allocs-g0.allocs)/float64(calls), calls)
	put("go.bytes_per_call", "B", (g1.bytes-g0.bytes)/float64(calls), calls)
	put("go.gc_cpu_frac", "ratio", (g1.gcCPU-g0.gcCPU)/math.Max(g1.cpu-g0.cpu, 1e-9), calls)
	pl, tl := sorted(plain.phase(w.latPhase).Lat), sorted(traced.phase(w.latPhase).Lat)
	put("trace.overhead_frac", "ratio", pct(tl, 0.10)/pct(pl, 0.10)-1, len(tl))
	s := sorted(ticks)
	put("host.tick_late_p99_us", "us", pct(s, 0.99), len(s))

	spans := tr.snapshot()
	self := selfTimes(spans)
	roots := make(map[string][]float64)
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots[sp.Name] = append(roots[sp.Name], us(self[sp.ID]))
		}
	}
	for _, name := range sortedKeys(roots) {
		out.Diag = append(out.Diag, metric{Name: "trace.self_us." + name, Unit: "us", Value: median(roots[name]), N: len(roots[name])})
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goStats are cumulative runtime/metrics readings.
type goStats struct{ allocs, bytes, gcCPU, cpu float64 }

func readGo() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return goStats{allocs: v[0], bytes: v[1], gcCPU: v[2], cpu: v[3]}
}

// startTicks measures how late 1 ms sleeps wake up until the returned stop
// function is called, which returns the lateness of each in µs. A host
// stall shows as a late wake-up.
func startTicks() (stop func() []float64) {
	done := make(chan struct{})
	res := make(chan []float64, 1)
	go func() {
		var late []float64
		for {
			select {
			case <-done:
				res <- late
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(time.Millisecond)
			late = append(late, us(time.Since(t0)-time.Millisecond))
		}
	}()
	return func() []float64 {
		close(done)
		return <-res
	}
}

// spawn re-runs this binary with args and returns its last output line
// decoded and its peak resident set size in MiB. The child is killed after
// timeout.
func spawn(timeout time.Duration, args ...string) (*childOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var last []byte
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	_, _ = io.Copy(io.Discard, pipe) // drain after a scan error so Wait returns
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	if scanErr != nil {
		return nil, 0, fmt.Errorf("%s: reading output: %w", strings.Join(args, " "), scanErr)
	}
	var out childOut
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, 0, fmt.Errorf("%s: bad output: %w", strings.Join(args, " "), err)
	}
	if out.Err != "" {
		return nil, 0, fmt.Errorf("%s: %s", strings.Join(args, " "), out.Err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return &out, rss, nil
}

func childArgs(kind string, w *workload, seed int64, extra ...string) []string {
	return append([]string{"-child", kind, "-workload", w.name, "-seed", fmt.Sprint(seed)}, extra...)
}

// ---- parent ----

// runUntraced measures the end-to-end metrics in rounds, each round running
// every workload once in a fresh process so that slow phases of the host
// spread over all of them. Setup probes precede each round for the same
// reason.
func runUntraced(ws []*workload, seed int64, total func(*workload) time.Duration) ([]*record, error) {
	setups := make(map[string][]*childOut)
	outs := make(map[string][]*childOut)
	rss := make(map[string][]float64)
	floors := make(map[string][]float64)
	for r := 0; r < rounds; r++ {
		for _, w := range ws {
			for i := 0; i < probes; i++ {
				out, _, err := spawn(2*time.Minute, childArgs("setup", w, seed)...)
				if err != nil {
					return nil, err
				}
				setups[w.name] = append(setups[w.name], out)
			}
			// Timed here, while no child runs, so the code under test
			// cannot influence the host floor.
			floors[w.name] = append(floors[w.name], floorUS())
			win := total(w) / rounds
			out, mib, err := spawn(win+3*time.Minute, childArgs("run", w, seed, "-window", win.String())...)
			if err != nil {
				return nil, err
			}
			outs[w.name] = append(outs[w.name], out)
			rss[w.name] = append(rss[w.name], mib)
		}
	}
	var recs []*record
	for _, w := range ws {
		rec := untracedRecord(w, setups[w.name], outs[w.name], rss[w.name], floors[w.name])
		rec.Seed, rec.Seconds = seed, total(w).Seconds()
		recs = append(recs, rec)
	}
	return recs, nil
}

// floorRefUS is host.floor_us in the fast state of the 2-vCPU host the
// benchmark was defined on. setup_s is given at that host speed.
const floorRefUS = 131.4

// untracedRecord pools the rounds of one workload into its end-to-end
// metrics and diagnostics.
//
// The host this benchmark was defined on alternates, over seconds to
// minutes, between a fast state and one where memory-bound code runs about
// half as fast, and the share of time in each varies from run to run. Over
// ten runs the median call latency spread by up to a third of its value,
// while the 10th percentile, which the slow state does not reach as long
// as a tenth of the calls run in the fast one, spread by under a tenth. So
// the gated latency is call_p10_us and the gated throughput is the 90th
// percentile of the per-slice rates; the medians are diagnostics. A code
// change that slows every call moves both, but one that slows only calls
// made in the slow state is not gated.
//
// The same host also runs everything up to a quarter slower for minutes at
// a time, which the fixed host-floor loop shows as well. Set-up probes are
// short, so each one is rescaled by the floor timed in its own process just
// before it: setup_s is the median probe at the floorRefUS host speed.
func untracedRecord(w *workload, setups []*childOut, outs []*childOut, rss, floors []float64) *record {
	rec := &record{Workload: w.name, Host: thisHost()}
	var scaled, raw []float64
	for _, p := range setups {
		raw = append(raw, p.SetupS)
		scaled = append(scaled, p.SetupS*floorRefUS/p.FloorUS)
	}
	pool := func(ph string) (lat, late []float64, done int, wall float64, batch int64) {
		for _, o := range outs {
			p := o.Round.phase(ph)
			lat = append(lat, p.Lat...)
			late = append(late, p.Late...)
			done += p.Done
			wall += p.Wall
			batch += p.Batch
		}
		return sorted(lat), sorted(late), done, wall, batch
	}
	var rates []float64
	for _, o := range outs {
		a, f := o.Round.failures()
		rec.Attempted += a
		rec.Failed += f
		for _, p := range o.Round.Phases {
			rec.Errors = append(rec.Errors, p.Errors...)
		}
		rates = append(rates, o.Round.phase(w.rpsPhase).sliceRates(slices)...)
	}
	rates = sorted(rates)
	lat, _, _, _, _ := pool(w.latPhase)
	rec.Metrics = []metric{
		{Name: "setup_s", Unit: "s", Value: median(scaled), N: len(scaled)},
		{Name: "call_p10_us", Unit: "us", Value: pct(lat, 0.10), N: len(lat)},
		{Name: "calls_per_s", Unit: "1/s", Value: pct(rates, 0.90), N: len(rates)},
		{Name: "maxrss_mb", Unit: "MiB", Value: median(rss), N: len(rss)},
	}
	diag := func(name, unit string, v float64, n int) {
		rec.Diag = append(rec.Diag, metric{Name: name, Unit: unit, Value: v, N: n})
	}
	diag("failed_frac", "ratio", float64(rec.Failed)/math.Max(1, float64(rec.Attempted)), rec.Attempted)
	diag("setup_s.unscaled", "s", median(raw), len(raw))
	if w.latPhase == "call" {
		lat, _, done, wall, _ := pool("call")
		diag("call_p50_us", "us", pct(lat, 0.5), len(lat))
		if name, v, ok := tail(lat); ok {
			diag("tail."+name+"_us.call", "us", v, len(lat))
		}
		diag("calls_per_s.pooled", "1/s", float64(done)/wall, done)
	} else {
		for _, ph := range []string{"lo", "hi", "sat"} {
			lat, late, done, wall, batch := pool(ph)
			diag("p50_us."+ph, "us", pct(lat, 0.5), len(lat))
			if name, v, ok := tail(lat); ok {
				diag("tail."+name+"_us."+ph, "us", v, len(lat))
			}
			if ph == "sat" {
				diag("sat_rps", "1/s", float64(done)/wall, done)
			}
			diag("batch_mean."+ph, "lanes", float64(batch)/math.Max(1, float64(done)), done)
			if len(late) > 0 {
				diag("loadgen.late_p99_us."+ph, "us", pct(late, 0.99), len(late))
			}
		}
	}
	diag("host.floor_us", "us", median(floors), len(floors))
	return rec
}

// runTraced runs the trace child of every workload and reports the
// per-layer metrics.
func runTraced(ws []*workload, seed int64, total func(*workload) time.Duration, spans string) ([]*record, error) {
	var recs []*record
	for _, w := range ws {
		t := total(w)
		args := childArgs("trace", w, seed, "-window", (t / 4).String(), "-ledger", (t / 2).String())
		if spans != "" {
			path := spans
			if len(ws) > 1 {
				path = strings.TrimSuffix(spans, ".json") + "." + w.name + ".json"
			}
			args = append(args, "-spans", path)
		}
		out, _, err := spawn(t+3*time.Minute, args...)
		if err != nil {
			return nil, err
		}
		recs = append(recs, &record{
			Workload: w.name, Seed: seed, Trace: true, Seconds: t.Seconds(), Host: thisHost(),
			Attempted: out.Attempted, Failed: out.Failed, Metrics: out.Metrics, Diag: out.Diag, Errors: out.Errors,
		})
	}
	return recs, nil
}

// printRecord writes a record's metrics one per line, each with its unit
// and sample count.
func printRecord(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "# %s seed=%d trace=%v seconds=%g num_cpu=%d gomaxprocs=%d go=%s attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, h.NumCPU, h.GOMAXPROCS, h.Go, rec.Attempted, rec.Failed)
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "%-10s %s\n", rec.Workload, m)
	}
	for _, m := range rec.Diag {
		fmt.Fprintf(w, "%-10s %s  (diagnostic)\n", rec.Workload, m)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "%-10s error: %s\n", rec.Workload, e)
	}
}

func appendRecords(path string, recs []*record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds records into the result line; with prefix set, metric
// names carry their workload ("lib-scan/call_p50_us"). A metric that could
// not be measured (no samples) makes the result incorrect.
func summarize(recs []*record, prefix bool) *result {
	res := &result{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, rec := range recs {
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		for _, m := range rec.Metrics {
			name := m.Name
			if prefix {
				name = rec.Workload + "/" + name
			}
			v := m.Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.Correct = false
				v = 0
			}
			res.Metrics[name] = jsonMetric{Value: v, Unit: m.Unit}
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	return res
}
