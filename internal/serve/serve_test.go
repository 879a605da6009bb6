package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func randPayload(rng *rand.Rand, nodes int) []int64 {
	in := make([]int64, nodes)
	for i := range in {
		in[i] = int64(rng.Intn(1<<16)) - 1<<15
	}
	return in
}

// checkAgainstUnbatched compares one serving response against the
// single-request library path the batcher must be indistinguishable from.
func checkAgainstUnbatched(req *Request, resp *Response) error {
	switch req.Op {
	case OpPrefix:
		want, _, err := prefix.DPrefix(machine.Config{}, topology.MustDualCube(req.N), req.Data, monoid.Sum[int64](), true, nil)
		if err != nil {
			return err
		}
		for i := range want {
			if resp.Data[i] != want[i] {
				return fmt.Errorf("prefix[%d] = %d, want %d", i, resp.Data[i], want[i])
			}
		}
	case OpAllReduce:
		var want int64
		for _, v := range req.Data {
			want += v
		}
		if len(resp.Data) != 1 || resp.Data[0] != want {
			return fmt.Errorf("allreduce = %v, want [%d]", resp.Data, want)
		}
	case OpSort:
		ord := sortnet.Ascending
		if req.Desc {
			ord = sortnet.Descending
		}
		want, _, err := sortnet.DSort(machine.Config{}, topology.MustDualCube(req.N), req.Data, func(a, b int64) bool { return a < b }, ord, nil)
		if err != nil {
			return err
		}
		for i := range want {
			if resp.Data[i] != want[i] {
				return fmt.Errorf("sort[%d] = %d, want %d (desc=%v)", i, resp.Data[i], want[i], req.Desc)
			}
		}
	case OpBroadcast:
		if len(resp.Data) != 1 || resp.Data[0] != req.Value {
			return fmt.Errorf("broadcast = %v, want [%d]", resp.Data, req.Value)
		}
	}
	return nil
}

// TestServeDifferential is the core differential requirement: concurrent
// mixed traffic — all four ops, two orders, mixed sort directions, several
// broadcast roots — through the coalescing batcher must be element-identical
// to the unbatched library calls, and batching must actually happen.
func TestServeDifferential(t *testing.T) {
	s := newTestServer(t, Config{
		Orders:   []int{2, 3},
		MaxBatch: 8,
		Window:   2 * time.Millisecond,
		QueueCap: 128,
	})

	const clients = 24
	const perClient = 12
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	var batched sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 100))
			for i := 0; i < perClient; i++ {
				n := 2 + (id+i)%2
				nodes := s.pools[n].c.Nodes()
				var req *Request
				switch Op((id + i) % int(opCount)) {
				case OpPrefix:
					req = &Request{Op: OpPrefix, N: n, Data: randPayload(rng, nodes)}
				case OpAllReduce:
					req = &Request{Op: OpAllReduce, N: n, Data: randPayload(rng, nodes)}
				case OpSort:
					req = &Request{Op: OpSort, N: n, Data: randPayload(rng, nodes), Desc: id%2 == 1}
				case OpBroadcast:
					req = &Request{Op: OpBroadcast, N: n, Root: rng.Intn(3), Value: int64(id*1000 + i)}
				}
				resp, err := s.Submit(req)
				if err != nil {
					errCh <- fmt.Errorf("client %d: %v", id, err)
					return
				}
				if resp.Batch > 1 {
					batched.Store(req.Op, true)
				}
				if err := checkAgainstUnbatched(req, resp); err != nil {
					errCh <- fmt.Errorf("client %d %s/D_%d: %v", id, req.Op, req.N, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if _, ok := batched.Load(OpPrefix); !ok {
		t.Error("no prefix request was ever coalesced; batcher exercised nothing")
	}
}

// TestServeBackpressure pins admission control: with the dispatchers
// stalled, the QueueCap+1'th concurrent request is rejected with
// ErrSaturated, and the queued ones are served once dispatch resumes.
func TestServeBackpressure(t *testing.T) {
	cfg := Config{Orders: []int{2}, MaxBatch: 4, Window: time.Millisecond, QueueCap: 4}.withDefaults()
	// Build the server by hand without starting dispatchers, so the queue
	// deterministically fills.
	s := &Server{
		cfg:   cfg,
		pools: make(map[int]*pool),
		lines: make(map[lineKey]*line),
		met:   newMetrics(cfg.MaxBatch),
	}
	p, err := newPool(2, cfg.Shards, cfg.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	s.pools[2] = p
	for op := OpPrefix; op < opCount; op++ {
		l := &line{s: s, key: lineKey{op, 2}, pool: p, ch: make(chan *pending, cfg.QueueCap)}
		s.lines[l.key] = l
	}

	nodes := p.c.Nodes()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.QueueCap)
	for i := 0; i < cfg.QueueCap; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			req := &Request{Op: OpPrefix, N: 2, Data: randPayload(rng, nodes)}
			if _, err := s.Submit(req); err != nil {
				errs <- err
			}
		}(int64(i))
	}
	// Wait until all four sit in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.lines[lineKey{OpPrefix, 2}].ch) < cfg.QueueCap {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", len(s.lines[lineKey{OpPrefix, 2}].ch), cfg.QueueCap)
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Submit(&Request{Op: OpPrefix, N: 2, Data: randPayload(rand.New(rand.NewSource(99)), nodes)}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow submit: err = %v, want ErrSaturated", err)
	}
	if got := s.met.op(OpPrefix).rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Resume dispatch: the queued requests must all complete.
	for _, l := range s.lines {
		s.wg.Add(1)
		go l.run()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("queued request failed: %v", err)
	}
	s.Close()
}

// TestServeDegraded drives traffic while the only shard is degraded: prefix
// and allreduce keep answering correctly over the fault-rewritten schedules
// (marked Degraded), sort becomes unavailable (no fault rewrite exists for
// the recursive-technique schedule), and restore brings it back.
func TestServeDegraded(t *testing.T) {
	s := newTestServer(t, Config{Orders: []int{3}, MaxBatch: 4, Window: time.Millisecond})
	rng := rand.New(rand.NewSource(9))
	nodes := s.pools[3].c.Nodes()

	if err := s.DegradeShard(3, 0, 2, 42); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		req := &Request{Op: OpPrefix, N: 3, Data: randPayload(rng, nodes)}
		resp, err := s.Submit(req)
		if err != nil {
			t.Fatalf("degraded prefix: %v", err)
		}
		if !resp.Degraded {
			t.Error("response not marked degraded")
		}
		if err := checkAgainstUnbatched(req, resp); err != nil {
			t.Fatalf("degraded prefix wrong: %v", err)
		}
	}
	if _, err := s.Submit(&Request{Op: OpSort, N: 3, Data: randPayload(rng, nodes)}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("sort on degraded-only pool: err = %v, want ErrUnavailable", err)
	}
	if states, _ := s.ShardStates(3); states[0] != "degraded" {
		t.Errorf("shard state = %q, want degraded", states[0])
	}

	if err := s.RestoreShard(3, 0); err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpSort, N: 3, Data: randPayload(rng, nodes)}
	resp, err := s.Submit(req)
	if err != nil {
		t.Fatalf("sort after restore: %v", err)
	}
	if resp.Degraded {
		t.Error("restored shard still marked degraded")
	}
	if err := checkAgainstUnbatched(req, resp); err != nil {
		t.Fatal(err)
	}

	if err := s.DownShard(3, 0); err != nil {
		t.Fatal(err)
	}
	if s.Healthy() {
		t.Error("server healthy with every shard down")
	}
	if _, err := s.Submit(&Request{Op: OpPrefix, N: 3, Data: randPayload(rng, nodes)}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("prefix on downed pool: err = %v, want ErrUnavailable", err)
	}
}

// TestServePoolStress exercises the shard pool under -race: concurrent
// mixed traffic on two shards while another goroutine flips shard 1
// through degrade/restore/down cycles. Every accepted answer must still be
// correct; ErrUnavailable is legal only for sort (a degrade window can
// leave no sort-capable shard).
func TestServePoolStress(t *testing.T) {
	s := newTestServer(t, Config{
		Orders:   []int{2},
		Shards:   2,
		MaxBatch: 4,
		Window:   500 * time.Microsecond,
		QueueCap: 256,
	})
	nodes := s.pools[2].c.Nodes()

	stop := make(chan struct{})
	var adminWG sync.WaitGroup
	adminWG.Add(1)
	go func() {
		defer adminWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				s.DegradeShard(2, 1, 1, int64(i))
			case 1:
				s.DownShard(2, 1)
			case 2:
				s.RestoreShard(2, 1)
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 25; i++ {
				var req *Request
				if i%3 == 0 {
					req = &Request{Op: OpSort, N: 2, Data: randPayload(rng, nodes), Desc: i%2 == 0}
				} else {
					req = &Request{Op: OpPrefix, N: 2, Data: randPayload(rng, nodes)}
				}
				resp, err := s.Submit(req)
				if errors.Is(err, ErrUnavailable) && req.Op == OpSort {
					continue // every sort-capable shard momentarily out
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d: %s: %v", id, req.Op, err)
					return
				}
				if err := checkAgainstUnbatched(req, resp); err != nil {
					errCh <- fmt.Errorf("client %d: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	adminWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Leave the pool in rotation for Cleanup's Close.
	s.RestoreShard(2, 1)
}

// TestClientHelpers smoke-tests the typed in-process client.
func TestClientHelpers(t *testing.T) {
	s := newTestServer(t, Config{Orders: []int{2}, Window: time.Millisecond})
	c := NewClient(s)
	rng := rand.New(rand.NewSource(3))
	nodes := s.pools[2].c.Nodes()

	in := randPayload(rng, nodes)
	resp, err := c.Prefix(2, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstUnbatched(&Request{Op: OpPrefix, N: 2, Data: in}, resp); err != nil {
		t.Fatal(err)
	}
	if resp, err = c.AllReduce(2, in); err != nil {
		t.Fatal(err)
	} else if err := checkAgainstUnbatched(&Request{Op: OpAllReduce, N: 2, Data: in}, resp); err != nil {
		t.Fatal(err)
	}
	keys := randPayload(rng, nodes)
	if resp, err = c.Sort(2, keys, true); err != nil {
		t.Fatal(err)
	} else if !sort.SliceIsSorted(resp.Data, func(i, j int) bool { return resp.Data[i] > resp.Data[j] }) {
		t.Fatalf("descending sort returned %v", resp.Data)
	}
	if resp, err = c.Broadcast(2, 5, 77); err != nil {
		t.Fatal(err)
	} else if resp.Data[0] != 77 {
		t.Fatalf("broadcast returned %v", resp.Data)
	}
}

// TestServeValidation pins the pre-queue request validation.
func TestServeValidation(t *testing.T) {
	s := newTestServer(t, Config{Orders: []int{2}})
	cases := []*Request{
		{Op: OpPrefix, N: 5, Data: make([]int64, 512)}, // unserved order
		{Op: OpPrefix, N: 2, Data: make([]int64, 3)},   // wrong length
		{Op: OpBroadcast, N: 2, Root: -1},              // bad root
		{Op: OpBroadcast, N: 2, Root: 8},               // bad root (nodes=8)
		{Op: Op(200), N: 2, Data: make([]int64, 8)},    // unknown op
		{Op: OpSort, N: 2, Data: nil},                  // missing payload
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	s.Close()
	if _, err := s.Submit(&Request{Op: OpPrefix, N: 2, Data: make([]int64, 8)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}
