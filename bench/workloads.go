package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dualcube"
	"dualcube/internal/monoid"
	"dualcube/internal/seq"
)

// sizes fixes the dual-cube orders and per-node chunk lengths the workloads
// run at. fullSizes is the benchmark; the tests run the same code at
// testSizes.
type sizes struct {
	scan, sort      int // lib-scan and lib-sort order
	bulkSort, sortK int // lib-bulk SortLarge order and keys per node
	bulkScan, scanK int // lib-bulk PrefixLarge order and elements per node
	bulkA2A         int // lib-bulk AllToAll order
	serve, http     int // serve-mix and http-d4 order
	sets, bulkSets  int // input sets cycled per workload (lib-bulk's are large)
}

var (
	fullSizes = sizes{scan: 6, sort: 6, bulkSort: 4, sortK: 64, bulkScan: 5, scanK: 512, bulkA2A: 4, serve: 5, http: 4, sets: 64, bulkSets: 8}
	testSizes = sizes{scan: 3, sort: 3, bulkSort: 3, sortK: 8, bulkScan: 3, scanK: 8, bulkA2A: 3, serve: 3, http: 3, sets: 8, bulkSets: 2}
)

// Serve-mix load: the two open-loop Poisson rates and the closed-loop
// concurrency. On a 2-vCPU host the closed loop completes 15k-20k requests/s
// on D_5. lo is under 4% of that: most requests wait out the batch window
// alone (batch_mean.lo ≈ 1.35 lanes). hi is about 30-40%: passes carry
// several lanes (batch_mean.hi 5.5-6.4).
const (
	mixLoRate   = 500.0
	mixHiRate   = 6000.0
	mixInflight = 64
)

// workload is one named traffic pattern of the benchmark. BENCHMARK.json
// and README.md say why each exists.
type workload struct {
	name string
	// window is the default measured time of one round.
	window time.Duration
	// latPhase names the phase whose median latency is call_p50_us and
	// rpsPhase the phase whose completions per second are calls_per_s.
	latPhase, rpsPhase string
	// open draws the inputs for seed, then builds and warms the system
	// under test. It returns how long drawing the inputs took, which the
	// setup probe does not count.
	open func(sz sizes, seed int64) (system, time.Duration, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []*workload{
	{
		name:     "lib-scan",
		window:   5 * time.Second,
		latPhase: "call", rpsPhase: "call",
		open: openLibScan,
	},
	{
		name:     "lib-sort",
		window:   5 * time.Second,
		latPhase: "call", rpsPhase: "call",
		open: openLibSort,
	},
	{
		name:     "lib-bulk",
		window:   5 * time.Second,
		latPhase: "call", rpsPhase: "call",
		open: openLibBulk,
	},
	{
		name:     "serve-mix",
		window:   9 * time.Second,
		latPhase: "hi", rpsPhase: "sat",
		open: openServeMix,
	},
	{
		name:     "http-d4",
		window:   5 * time.Second,
		latPhase: "call", rpsPhase: "call",
		open: openHTTP,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// system is a built, warmed system under test.
type system interface {
	// first runs one call and checks its output: the end of a setup probe.
	first() error
	// measure runs the workload for d, recording into r; a non-nil tr
	// records spans around the calls into each layer.
	measure(d time.Duration, r *round, tr *tracer)
	close()
}

// round holds the samples of one measured round, by phase name.
type round struct {
	Phases map[string]*phase `json:"phases"`
}

func newRound() *round { return &round{Phases: make(map[string]*phase)} }

func (r *round) phase(name string) *phase {
	p := r.Phases[name]
	if p == nil {
		p = &phase{Submit: make(map[string][]float64)}
		r.Phases[name] = p
	}
	return p
}

// failures returns the attempted and failed call counts over every phase.
func (r *round) failures() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Done + p.Failed
		failed += p.Failed
	}
	return attempted, failed
}

// phase collects the samples of one measured phase. Safe for concurrent use.
type phase struct {
	mu sync.Mutex
	// Lat is the latency of each completed call in µs: the timed call for a
	// closed loop, the time from the due time to the reply for an open loop.
	Lat []float64 `json:"lat_us"`
	// Late is how late the open-loop generator sent each request, in µs.
	Late []float64 `json:"late_us,omitempty"`
	// Submit is the duration of each serve Submit in µs, by operation.
	Submit map[string][]float64 `json:"submit_us,omitempty"`
	// At is when each completed call finished, in seconds since the phase
	// began.
	At []float64 `json:"at_s"`
	// Batch sums the lane occupancy of the passes that served each request.
	Batch  int64    `json:"batch_sum"`
	Done   int      `json:"done"`
	Failed int      `json:"failed"`
	Wall   float64  `json:"wall_s"`
	Errors []string `json:"errors,omitempty"` // the first few failures

	start time.Time
}

// begin marks the start of the measured phase.
func (p *phase) begin(t time.Time) {
	p.mu.Lock()
	p.start = t
	p.mu.Unlock()
}

// record adds one call: its latency and batch size when err is nil, a
// failure otherwise.
func (p *phase) record(lat time.Duration, batch int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.Failed++
		if len(p.Errors) < 5 {
			p.Errors = append(p.Errors, err.Error())
		}
		return
	}
	p.Done++
	p.Batch += int64(batch)
	p.Lat = append(p.Lat, us(lat))
	p.At = append(p.At, time.Since(p.start).Seconds())
}

// sliceRates splits the phase's wall time into n equal slices and returns
// the completions per second in each.
func (p *phase) sliceRates(n int) []float64 {
	if p.Wall <= 0 {
		return nil
	}
	counts := make([]int, n)
	for _, at := range p.At {
		i := int(at / p.Wall * float64(n))
		counts[min(max(i, 0), n-1)]++
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / (p.Wall / float64(n))
	}
	return rates
}

func (p *phase) addLate(late time.Duration) {
	p.mu.Lock()
	p.Late = append(p.Late, us(late))
	p.mu.Unlock()
}

func (p *phase) addSubmit(op string, d time.Duration) {
	p.mu.Lock()
	p.Submit[op] = append(p.Submit[op], us(d))
	p.mu.Unlock()
}

func (p *phase) addWall(d time.Duration) {
	p.mu.Lock()
	p.Wall += d.Seconds()
	p.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// caller is one closed-loop client. call runs input set i through the
// system, which is the timed part; check then compares what the call
// returned with the internal/seq answer, untimed.
type caller interface {
	call(i int, tr *tracer, parent int64) error
	check(i int) error
}

// closedLoop runs each caller in its own goroutine, one call after another,
// until d has passed, cycling through sets input sets. With a tracer, each
// call is a root span named name, the parent of the caller's spans.
func closedLoop(name string, callers []caller, sets int, d time.Duration, ph *phase, tr *tracer) {
	start := time.Now()
	ph.begin(start)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for j, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := j; time.Now().Before(deadline); i += len(callers) {
				set := i % sets
				id := tr.begin(name, 0)
				t0 := time.Now()
				err := c.call(set, tr, id)
				lat := time.Since(t0)
				tr.end(id)
				if err == nil {
					err = c.check(set)
				}
				ph.record(lat, 1, err)
			}
		}()
	}
	wg.Wait()
	ph.addWall(time.Since(start))
}

// loop is a system driven by closed-loop callers.
type loop struct {
	name    string
	callers []caller
	sets    int
	stop    func()
}

func (l *loop) first() error {
	c := l.callers[0]
	if err := c.call(0, nil, 0); err != nil {
		return err
	}
	return c.check(0)
}

func (l *loop) measure(d time.Duration, r *round, tr *tracer) {
	closedLoop(l.name+".call", l.callers, l.sets, d, r.phase("call"), tr)
}

func (l *loop) close() {
	if l.stop != nil {
		l.stop()
	}
}

// rng returns the input generator of one workload for seed; salt keeps the
// workloads' inputs independent of each other.
func rng(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func randVec(r *rand.Rand, n int, lo, hi int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = lo + r.Int63n(hi-lo)
	}
	return v
}

func scanOf(in []int64) []int64 { return seq.ScanInclusive(in, monoid.Sum[int64]()) }

func sumOf(in []int64) int64 { return seq.Reduce(in, monoid.Sum[int64]()) }

func less(a, b int64) bool { return a < b }

// sortedAs is the internal/seq answer of a sort in direction ord.
func sortedAs(in []int64, ord dualcube.Order) []int64 {
	s := seq.Sorted(in, less)
	if ord == dualcube.Descending {
		return seq.Reversed(s)
	}
	return s
}

// orderOf is the sort direction of input set i: ascending and descending
// alternate.
func orderOf(i int) dualcube.Order {
	if i%2 == 1 {
		return dualcube.Descending
	}
	return dualcube.Ascending
}

// same reports the first position where got differs from want.
func same(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// allEqual reports a slot of got that does not hold v.
func allEqual(what string, got []int64, v int64, n int) error {
	if len(got) != n {
		return fmt.Errorf("%s: %d results, want %d", what, len(got), n)
	}
	for i, x := range got {
		if x != v {
			return fmt.Errorf("%s: node %d holds %d, want %d", what, i, x, v)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmRuntime returns the Runtime of D_n with its schedules compiled.
func warmRuntime(n int) (*dualcube.Runtime, error) {
	rt, err := dualcube.NewRuntime(n)
	if err != nil {
		return nil, err
	}
	return rt, rt.Warm()
}

// ---- lib-scan ----

type scanInputs struct {
	in, want [][]int64
	sum      []int64
	root     []int
	val      []int64
}

func openLibScan(sz sizes, seed int64) (system, time.Duration, error) {
	t0 := time.Now()
	r := rng(seed, 1)
	nodes := 1 << (2*sz.scan - 1)
	x := &scanInputs{}
	for i := 0; i < sz.sets; i++ {
		in := randVec(r, nodes, -1000, 1000)
		x.in = append(x.in, in)
		x.want = append(x.want, scanOf(in))
		x.sum = append(x.sum, sumOf(in))
		x.root = append(x.root, r.Intn(nodes))
		x.val = append(x.val, r.Int63())
	}
	gen := time.Since(t0)
	rt, err := warmRuntime(sz.scan)
	if err != nil {
		return nil, gen, err
	}
	c := &libScan{rt: rt, n: sz.scan, x: x}
	return &loop{name: "lib-scan", callers: []caller{c}, sets: sz.sets}, gen, nil
}

type libScan struct {
	rt         *dualcube.Runtime
	n          int
	x          *scanInputs
	p, a, b    []int64
	sp, sa, sb dualcube.Stats
}

func (c *libScan) call(i int, tr *tracer, parent int64) (err error) {
	in := c.x.in[i]
	id := tr.begin("dualcube.prefix", parent)
	c.p, c.sp, err = dualcube.PrefixOn(c.rt, in)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("dualcube.allreduce", parent)
	c.a, c.sa, err = dualcube.AllReduceSumOn(c.rt, in)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("dualcube.broadcast", parent)
	c.b, c.sb, err = dualcube.BroadcastOn(c.rt, c.x.root[i], c.x.val[i])
	tr.end(id)
	return err
}

func (c *libScan) check(i int) error {
	nodes := len(c.x.in[i])
	return firstErr(
		same("prefix", c.p, c.x.want[i]),
		allEqual("allreduce", c.a, c.x.sum[i], nodes),
		allEqual("broadcast", c.b, c.x.val[i], nodes),
		pinned("prefix", c.n, 1, c.sp),
		pinned("allreduce", c.n, 1, c.sa),
		pinned("broadcast", c.n, 1, c.sb),
	)
}

// ---- lib-sort ----

type sortInputs struct {
	in, want [][]int64
}

func openLibSort(sz sizes, seed int64) (system, time.Duration, error) {
	t0 := time.Now()
	r := rng(seed, 2)
	nodes := 1 << (2*sz.sort - 1)
	x := &sortInputs{}
	for i := 0; i < sz.sets; i++ {
		// Keys in [0, 2N): duplicates are certain.
		in := randVec(r, nodes, 0, int64(2*nodes))
		x.in = append(x.in, in)
		x.want = append(x.want, sortedAs(in, orderOf(i)))
	}
	gen := time.Since(t0)
	rt, err := warmRuntime(sz.sort)
	if err != nil {
		return nil, gen, err
	}
	c := &libSort{rt: rt, n: sz.sort, x: x}
	return &loop{name: "lib-sort", callers: []caller{c}, sets: sz.sets}, gen, nil
}

type libSort struct {
	rt  *dualcube.Runtime
	n   int
	x   *sortInputs
	out []int64
	st  dualcube.Stats
}

func (c *libSort) call(i int, tr *tracer, parent int64) (err error) {
	id := tr.begin("dualcube.sort", parent)
	c.out, c.st, err = dualcube.SortOn(c.rt, c.x.in[i], orderOf(i))
	tr.end(id)
	return err
}

func (c *libSort) check(i int) error {
	return firstErr(same("sort", c.out, c.x.want[i]), pinned("sort", c.n, 1, c.st))
}

// ---- lib-bulk ----

type bulkInputs struct {
	keys, keysWant [][]int64   // SortLarge
	scan, scanWant [][]int64   // PrefixLarge
	mat, matWant   [][][]int64 // AllToAll and its transpose
}

func openLibBulk(sz sizes, seed int64) (system, time.Duration, error) {
	t0 := time.Now()
	r := rng(seed, 3)
	sortN := sz.sortK << (2*sz.bulkSort - 1)
	scanN := sz.scanK << (2*sz.bulkScan - 1)
	a2a := 1 << (2*sz.bulkA2A - 1)
	x := &bulkInputs{}
	for i := 0; i < sz.bulkSets; i++ {
		keys := randVec(r, sortN, 0, 1<<20)
		x.keys = append(x.keys, keys)
		x.keysWant = append(x.keysWant, sortedAs(keys, orderOf(i)))
		in := randVec(r, scanN, -1000, 1000)
		x.scan = append(x.scan, in)
		x.scanWant = append(x.scanWant, scanOf(in))
		mat := make([][]int64, a2a)
		for j := range mat {
			mat[j] = randVec(r, a2a, -1<<40, 1<<40)
		}
		x.mat = append(x.mat, mat)
		x.matWant = append(x.matWant, transpose(mat))
	}
	gen := time.Since(t0)
	c := &libBulk{sz: sz, x: x}
	var err error
	if c.sortRT, err = warmRuntime(sz.bulkSort); err != nil {
		return nil, gen, err
	}
	if c.scanRT, err = warmRuntime(sz.bulkScan); err != nil {
		return nil, gen, err
	}
	if c.a2aRT, err = warmRuntime(sz.bulkA2A); err != nil {
		return nil, gen, err
	}
	return &loop{name: "lib-bulk", callers: []caller{c}, sets: sz.bulkSets}, gen, nil
}

// transpose is the internal/seq-style floor of AllToAll: out[j][i] = in[i][j].
func transpose(in [][]int64) [][]int64 {
	out := make([][]int64, len(in))
	for j := range out {
		out[j] = make([]int64, len(in))
		for i := range in {
			out[j][i] = in[i][j]
		}
	}
	return out
}

type libBulk struct {
	sz                    sizes
	x                     *bulkInputs
	sortRT, scanRT, a2aRT *dualcube.Runtime
	keys, scan            []int64
	mat                   [][]int64
	sk, ss, sa            dualcube.Stats
}

func (c *libBulk) call(i int, tr *tracer, parent int64) (err error) {
	id := tr.begin("dualcube.sortlarge", parent)
	c.keys, c.sk, err = dualcube.SortLargeOn(c.sortRT, c.sz.sortK, c.x.keys[i], orderOf(i))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("dualcube.prefixlarge", parent)
	c.scan, c.ss, err = dualcube.PrefixLargeOn(c.scanRT, c.sz.scanK, c.x.scan[i])
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("dualcube.alltoall", parent)
	c.mat, c.sa, err = dualcube.AllToAllOn(c.a2aRT, c.x.mat[i])
	tr.end(id)
	return err
}

func (c *libBulk) check(i int) error {
	if err := firstErr(
		same("sortlarge", c.keys, c.x.keysWant[i]),
		same("prefixlarge", c.scan, c.x.scanWant[i]),
		pinned("sortlarge", c.sz.bulkSort, c.sz.sortK, c.sk),
		pinned("prefixlarge", c.sz.bulkScan, c.sz.scanK, c.ss),
		pinned("alltoall", c.sz.bulkA2A, 1, c.sa),
	); err != nil {
		return err
	}
	if len(c.mat) != len(c.x.matWant[i]) {
		return fmt.Errorf("alltoall: %d rows, want %d", len(c.mat), len(c.x.matWant[i]))
	}
	for j, row := range c.mat {
		if err := same(fmt.Sprintf("alltoall row %d", j), row, c.x.matWant[i][j]); err != nil {
			return err
		}
	}
	return nil
}
