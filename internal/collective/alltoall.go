package collective

import (
	"fmt"

	"dualcube/internal/dcomm"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/topology"
)

// AllToAll performs the total (all-to-all personalized) exchange: element
// i sends the distinct value in[i][j] to element j, and out[j][i] = in[i][j]
// — a distributed matrix transpose. It runs in 2n communication rounds
// (each round one full-buffer exchange per node), using the same
// four-phase skeleton as the other cluster-technique collectives:
//
//  1. n-1 in-cluster rounds of dimension-ordered routing: every item moves
//     to the cluster member whose local index equals the destination's
//     "other field" — the coordinate that becomes the cluster ID after a
//     cross-edge hop;
//  2. one cross-edge round carrying every item (the cross-edge permutation
//     turns exit-locals into cluster IDs, landing each item in a cluster
//     adjacent to its goal);
//  3. n-1 more in-cluster rounds under the same key rule, which brings
//     every item either home or to its destination's cross neighbor;
//  4. one final cross-edge round delivering the remainder.
//
// Per-node buffers stay at N items throughout (the routing is perfectly
// balanced for the full personalized exchange). The items ride the route
// payload plane: the values sit still in one flat arena while int32 ids
// (src·N + dst) move by copy through fixed stride-N regions, double-
// buffered send planes carrying each round's outgoing run — so a warm call
// allocates only the result slab plus fixed run bookkeeping.
func AllToAll[T any](cfg machine.Config, c topology.Comm, in [][]T) ([][]T, machine.Stats, error) {
	if err := topology.ValidLen(c, len(in)); err != nil {
		return nil, machine.Stats{}, err
	}
	N := c.Nodes()
	for i, row := range in {
		if len(row) != N {
			return nil, machine.Stats{}, fmt.Errorf("collective: in[%d] has %d entries, want %d", i, len(row), N)
		}
	}
	rk, err := newRoute[T](c)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	pl := rk.pl
	defer putRoutePlane(N, pl)
	vals := pl.GrowVals(N * N)
	for i, row := range in {
		copy(vals[i*N:(i+1)*N], row)
	}
	st, err := rk.execute(cfg)
	if err != nil {
		return nil, st, err
	}

	backing := make([]T, N*N)
	out := make([][]T, N)
	logN := rk.logN
	var firstE error
	for u := 0; u < N; u++ {
		uerr := rk.nodeErr(u, "item")
		cnt := int(pl.Cnt[u])
		myIdx := int(rk.node[u].Data)
		row := backing[myIdx*N : (myIdx+1)*N : (myIdx+1)*N]
		out[myIdx] = row
		if uerr == nil {
			for _, id := range pl.IDs[u*pl.Stride : u*pl.Stride+cnt] {
				dst := int(id) & (N - 1)
				if dst != myIdx {
					if uerr == nil {
						uerr = fmt.Errorf("collective: node %d holds foreign item for %d", u, dst)
					}
					continue
				}
				row[id>>logN] = pl.Vals[id]
			}
		}
		if uerr != nil && firstE == nil {
			firstE = uerr
		}
	}
	if firstE != nil {
		return nil, st, firstE
	}
	return out, st, nil
}

// newRoute builds the route kernel for one total exchange on c: it
// compiles the schedule, checks the id plane can address N² items, and
// checks a plane out of the stash. The caller fills the value arena (and
// the CSR table for the variable-size exchange), then calls execute.
func newRoute[T any](c topology.Comm) (*routeKernel[T], error) {
	sch, err := dcomm.Compiled(c, dcomm.OpAllToAll)
	if err != nil {
		return nil, err
	}
	n := c.Order()
	if 2*(2*n-1) > 31 {
		// id = src<<(2n-1) | dst must fit an int32; the excluded orders are
		// far beyond what an N² exchange could materialize anyway.
		return nil, fmt.Errorf("collective: all-to-all id plane overflows at order %d", n)
	}
	m := c.ClusterDim()
	tab := c.Tables()
	return &routeKernel[T]{
		sch: sch, mdim: m, nodes: c.Nodes(),
		logN: 2*n - 1, dstMask: int32(c.Nodes() - 1),
		node: tab.Node, key: tab.Key, cross: sch.Steps[2*m+1].Partners(),
		pl: routePlane[T](c.Nodes()),
	}, nil
}

// routeKernel is the dimension-ordered total-exchange router shared by
// AllToAll and AllToAllV over the route plane: per in-cluster round a node
// compacts its kept ids in place and copies the moving run into its send
// region, the cross rounds carry the whole buffer or the cross-destined
// remainder. A misrouted id is recorded in the plane's Bad slot (the host
// also re-checks counts and ownership after the run). The kernel body reads
// the topology only through tables: the order's node roles and per-class
// routing keys, and the schedule's final cross-hop partner table.
type routeKernel[T any] struct {
	sch     *machine.Schedule
	mdim    int
	nodes   int
	logN    int   // id = srcElem<<logN | dstElem
	dstMask int32 // id & dstMask = dstElem
	node    []topology.NodeRole
	key     [2][]uint16 // topology.Tables.Key: key[class][dstElem]
	cross   []int32     // cross[u] = u's cross neighbor
	pl      *machine.RoutePlane[T]
}

func (rk *routeKernel[T]) execute(cfg machine.Config) (machine.Stats, error) {
	return dcomm.Execute(rk.sch, cfg, rk)
}

// nodeErr formats node u's post-run delivery error (or nil): the kernel's
// recorded marker first, then the count check. kind is the diagnostic noun
// ("item" for alltoall, "bundle" for alltoallv).
func (rk *routeKernel[T]) nodeErr(u int, kind string) error {
	N := rk.nodes
	if b := rk.pl.Bad[u]; b != 0 {
		if b < 0 {
			return fmt.Errorf("collective: node %d overflowed its route plane region", u)
		}
		id := int(b - 1)
		return fmt.Errorf("collective: all-to-all%s (%d->%d) stranded at node %d",
			strandedNoun(kind), id>>rk.logN, id&(N-1), u)
	}
	if cnt := int(rk.pl.Cnt[u]); cnt != N {
		return fmt.Errorf("collective: node %d received %d of %d %ss", u, cnt, N, kind)
	}
	return nil
}

// strandedNoun renders the stranded-diagnostic spelling: " item" for the
// fixed-size exchange, "-v bundle" for the variable one — preserving the
// exact pre-plane error strings.
func strandedNoun(kind string) string {
	if kind == "bundle" {
		return "-v bundle"
	}
	return " item"
}

func (rk *routeKernel[T]) Produce(dc *machine.DirectCtx, k, u int) (machine.DirectRole, machine.Extent) {
	p := rk.pl
	cnts := p.Cnt
	nd := rk.node[u]
	base := u * p.Stride
	cnt := int(cnts[u])
	if k == 0 {
		cnt = p.Stride
	}
	ids := p.IDs[base : base+cnt]
	if k == 0 {
		// Seed: node u's N outgoing items, ids myIdx·N + j in order.
		first := nd.Data << rk.logN
		for j := range ids {
			ids[j] = first | int32(j)
		}
	}
	send := p.Send[k&1][base : base+p.Stride]
	if k == rk.mdim {
		// Phase 2: the cross-edge carries the whole buffer.
		copy(send, ids)
		return machine.DirectExchange, machine.Extent{Off: int32(base), Len: int32(len(ids))}
	}
	keep, sent := 0, 0
	if k <= 2*rk.mdim {
		// Phases 1 and 3: one dimension-ordered routing round; items whose
		// key differs at the step's bit move to the partner. Keeps compact
		// in place, the moving run copies into this step's send plane.
		i := k
		if i > rk.mdim {
			i = k - rk.mdim - 1
		}
		key := rk.key[nd.Class&1]
		bit := 1 << i
		own := int(nd.Local) & bit
		for _, id := range ids {
			if int(key[id&rk.dstMask])&bit != own {
				send[sent] = id
				sent++
			} else {
				ids[keep] = id
				keep++
			}
		}
	} else {
		// Phase 4: deliver the cross-destined remainder; everything else
		// must already be home.
		home, away := nd.Data, rk.node[rk.cross[u]].Data
		bad := int32(0)
		for _, id := range ids {
			switch id & rk.dstMask {
			case home:
				ids[keep] = id
				keep++
			case away:
				send[sent] = id
				sent++
			default:
				// A misrouted item means the routing keys disagree with the
				// topology; record it and drop the item — the host's count
				// check fails too, and the run reports the first error.
				if bad == 0 {
					bad = id + 1
				}
			}
		}
		if bad != 0 && p.Bad[u] == 0 {
			p.Bad[u] = bad
		}
	}
	cnts[u] = int32(keep)
	return machine.DirectExchange, machine.Extent{Off: int32(base), Len: int32(sent)}
}

func (rk *routeKernel[T]) Absorb(dc *machine.DirectCtx, k, u int, v machine.Extent) {
	p := rk.pl
	base := u * p.Stride
	src := p.Send[k&1][v.Off : v.Off+v.Len]
	if k == rk.mdim {
		copy(p.IDs[base:base+len(src)], src)
		p.Cnt[u] = v.Len
		return
	}
	cnt := int(p.Cnt[u])
	if cnt+len(src) > p.Stride {
		// Region overflow is a routing-protocol failure (the balanced
		// exchange never exceeds N per node); record and drop.
		if p.Bad[u] == 0 {
			p.Bad[u] = -1
		}
		return
	}
	copy(p.IDs[base+cnt:base+cnt+len(src)], src)
	p.Cnt[u] = int32(cnt + len(src))
	if k < 2*rk.mdim+1 {
		dc.Ops(1)
	}
}

func (rk *routeKernel[T]) Local(dc *machine.DirectCtx, k, u int) {}

// ReduceScatter combines the element-wise contributions of all nodes and
// leaves each node with its own combined element: out[j] = in[0][j] ⊕
// in[1][j] ⊕ ... ⊕ in[N-1][j], combined in source order. Implemented as a
// total exchange (2n rounds) followed by a local reduction round; on a
// machine with wormhole combining one could fold en route, but the round
// count — which is what the paper's model prices — is the same.
func ReduceScatter[T any](cfg machine.Config, c topology.Comm, in [][]T, m monoid.Monoid[T]) ([]T, machine.Stats, error) {
	trans, st, err := AllToAll(cfg, c, in)
	if err != nil {
		return nil, st, err
	}
	out := make([]T, len(trans))
	for j, row := range trans {
		acc := m.Identity()
		for _, v := range row {
			acc = m.Combine(acc, v)
		}
		out[j] = acc
	}
	st.MaxOps++
	st.TotalOps += int64(len(trans))
	return out, st, nil
}
