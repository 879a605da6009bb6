package collective

import (
	"fmt"

	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// AllToAllV is the variable-size total exchange: element i sends the slice
// in[i][j] (possibly empty) to element j, and out[j][i] = in[i][j]. The
// routing is identical to AllToAll — the same 2n dimension-ordered rounds
// of the cluster technique — only the payloads differ in size, so the
// communication ROUNDS stay 2n while per-round volumes follow the data.
// This is the exchange primitive bucket-based algorithms (sample sort,
// radix partitioning) need.
//
// On the route plane the variable sizes cost nothing extra in flight: the
// concatenated values sit still in the flat arena behind a CSR offset
// table indexed by id, and only the int32 ids route. The host carves each
// delivered bundle out of one result slab; empty bundles come back nil.
func AllToAllV[T any](cfg machine.Config, c topology.Comm, in [][][]T) ([][][]T, machine.Stats, error) {
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
	// CSR of the bundles in id order: bundle id (= i·N + j) occupies
	// Vals[VOff[id]:VOff[id+1]].
	voff := pl.GrowVOff(N*N + 1)
	total := 0
	for i, row := range in {
		for j, b := range row {
			voff[i*N+j] = int32(total)
			total += len(b)
		}
	}
	voff[N*N] = int32(total)
	vals := pl.GrowVals(total)
	for i, row := range in {
		for j, b := range row {
			copy(vals[voff[i*N+j]:], b)
		}
	}
	st, err := rk.execute(cfg)
	if err != nil {
		return nil, st, err
	}

	valBacking := make([]T, total)
	hdrs := make([][]T, N*N)
	out := make([][][]T, N)
	filled := 0
	var firstE error
	for u := 0; u < N; u++ {
		uerr := rk.nodeErr(u, "bundle")
		cnt := int(pl.Cnt[u])
		myIdx := int(rk.node[u].Data)
		row := hdrs[myIdx*N : (myIdx+1)*N : (myIdx+1)*N]
		out[myIdx] = row
		if uerr == nil {
			for _, id := range pl.IDs[u*pl.Stride : u*pl.Stride+cnt] {
				dst := int(id) & (N - 1)
				if dst != myIdx {
					if uerr == nil {
						uerr = fmt.Errorf("collective: node %d holds foreign bundle for %d", u, dst)
					}
					continue
				}
				if l := int(voff[id+1] - voff[id]); l > 0 {
					b := valBacking[filled : filled+l : filled+l]
					filled += l
					copy(b, pl.Vals[voff[id]:voff[id+1]])
					row[id>>rk.logN] = b
				}
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
