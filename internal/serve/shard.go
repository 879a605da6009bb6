package serve

import (
	"fmt"
	"sync"

	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// shardState is a shard's place in the rotation.
type shardState int

const (
	shardUp shardState = iota
	// shardDegraded serves through fault-rewritten schedules with the fault
	// plan armed; it cannot serve ops whose schedule has no rewrite (sort).
	shardDegraded
	shardDown
)

// shard is one warmed execution unit: the shared topology, the compiled
// schedule per op (fault-rewritten when degraded), and a reusable k-wide
// payload plane. The pool hands a shard to at most one dispatcher at a
// time, so the plane needs no locking.
//
// All shard fields below idx/lanes are guarded by the owning pool's
// mutex: state transitions and schedule swaps happen under it, and a
// running pass copies sched/spec out at checkout time, so a degrade or
// restore never mutates what an in-flight pass reads.
type shard struct {
	idx   int
	lanes *machine.Lanes[int64]

	state shardState
	busy  bool
	sched map[dcomm.Op]*machine.Schedule // per-op schedule, possibly FT-rewritten
	spec  *machine.FaultSpec             // armed plan of a degraded shard, else nil
}

// serveOps maps serving ops onto the compiled schedules they run over; it
// is also the schedule set every shard warms at pool construction.
var serveOps = map[Op]dcomm.Op{
	OpPrefix:    dcomm.OpPrefix,
	OpAllReduce: dcomm.OpAllReduce,
	OpSort:      dcomm.OpDSort,
	OpBroadcast: dcomm.OpBroadcast,
}

// cleanSchedules assembles (from the process-wide compile cache) the
// fault-free schedule set a healthy shard serves with.
func cleanSchedules(c topology.Comm) (map[dcomm.Op]*machine.Schedule, error) {
	m := make(map[dcomm.Op]*machine.Schedule, len(serveOps))
	for _, op := range serveOps {
		sch, err := dcomm.Compiled(c, op)
		if err != nil {
			return nil, err
		}
		m[op] = sch
	}
	return m, nil
}

// lease is a checked-out shard plus the schedule view its pass runs with,
// frozen at checkout so pool state changes cannot race the pass.
type lease struct {
	sh       *shard
	sched    *machine.Schedule
	spec     *machine.FaultSpec
	degraded bool
}

// pool is the per-order shard set. Dispatchers acquire an idle shard able
// to run their op (blocking while every eligible shard is busy), run one
// batched pass, and release it; degrade/down/restore swap shard state
// under the same mutex, so a state change never races a checkout.
type pool struct {
	c      topology.Comm
	mu     sync.Mutex
	cond   *sync.Cond
	shards []*shard
}

func newPool(n, shards, maxBatch int) (*pool, error) {
	d, err := topology.Shared(n)
	if err != nil {
		return nil, err
	}
	p := &pool{c: d}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < shards; i++ {
		sched, err := cleanSchedules(d)
		if err != nil {
			return nil, err
		}
		p.shards = append(p.shards, &shard{
			idx:   i,
			lanes: machine.NewLanes[int64](d.Nodes(), maxBatch),
			sched: sched,
		})
	}
	return p, nil
}

// acquire checks out an idle shard able to serve op. It blocks while every
// eligible shard is busy and fails with ErrUnavailable once no shard in
// rotation can serve op at all (all down, or all survivors degraded for an
// op without a fault-rewritten schedule).
func (p *pool) acquire(op dcomm.Op) (*lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		eligible := false
		for _, sh := range p.shards {
			if sh.state == shardDown {
				continue
			}
			sch, ok := sh.sched[op]
			if !ok {
				continue
			}
			eligible = true
			if sh.busy {
				continue
			}
			sh.busy = true
			return &lease{sh: sh, sched: sch, spec: sh.spec, degraded: sh.state == shardDegraded}, nil
		}
		if !eligible {
			return nil, ErrUnavailable
		}
		p.cond.Wait()
	}
}

// release returns a leased shard to the rotation.
func (p *pool) release(l *lease) {
	p.mu.Lock()
	l.sh.busy = false
	p.mu.Unlock()
	p.cond.Broadcast()
}

// upCount returns the number of shards in rotation (healthy or degraded).
func (p *pool) upCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, sh := range p.shards {
		if sh.state != shardDown {
			n++
		}
	}
	return n
}

func (p *pool) stateNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.shards))
	for i, sh := range p.shards {
		switch sh.state {
		case shardUp:
			names[i] = "up"
		case shardDegraded:
			names[i] = "degraded"
		default:
			names[i] = "down"
		}
	}
	return names
}

// degrade marks shard idx degraded under f random permanent link faults
// seeded with seed: every op whose schedule dcomm.RewriteFT can rework
// gets the rewritten schedule, the rest (sort — the recursive-technique
// schedule has no fault rewrite) drop out of the shard's capability set,
// and the plan's FaultSpec arms every subsequent pass.
func (p *pool) degrade(idx, f int, seed int64) error {
	if err := p.checkIdx(idx); err != nil {
		return err
	}
	plan := fault.Random(p.c, f, seed)
	view := fault.NewView(p.c, plan)
	sched := make(map[dcomm.Op]*machine.Schedule, len(serveOps))
	for _, op := range serveOps {
		clean, err := dcomm.Compiled(p.c, op)
		if err != nil {
			return err
		}
		ft, err := dcomm.RewriteFT(clean, view)
		if err != nil {
			continue // no fault rewrite for this schedule shape (sort)
		}
		sched[op] = ft
	}
	if len(sched) == 0 {
		return fmt.Errorf("serve: no operation survives the fault plan on shard %d", idx)
	}
	p.mu.Lock()
	sh := p.shards[idx]
	sh.state = shardDegraded
	sh.sched = sched
	sh.spec = plan.Spec()
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}

// down removes shard idx from rotation; an in-flight pass on it finishes,
// later checkouts skip it.
func (p *pool) down(idx int) error {
	if err := p.checkIdx(idx); err != nil {
		return err
	}
	p.mu.Lock()
	p.shards[idx].state = shardDown
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}

// restore returns shard idx to healthy rotation on fault-free schedules.
func (p *pool) restore(idx int) error {
	if err := p.checkIdx(idx); err != nil {
		return err
	}
	sched, err := cleanSchedules(p.c)
	if err != nil {
		return err
	}
	p.mu.Lock()
	sh := p.shards[idx]
	sh.state = shardUp
	sh.sched = sched
	sh.spec = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}

func (p *pool) checkIdx(idx int) error {
	if idx < 0 || idx >= len(p.shards) {
		return fmt.Errorf("serve: %s has shards 0..%d, not %d", p.c.Name(), len(p.shards)-1, idx)
	}
	return nil
}
