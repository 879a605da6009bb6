// Package ntt implements a distributed number-theoretic transform (the FFT
// over a prime field) on the dual-cube, as an instance of the paper's
// recursive technique: the radix-2 Cooley-Tukey butterfly is the canonical
// "normal" ascend algorithm — stage s pairs nodes along dimension s-1 — so
// it runs unchanged on D_n (and on every topology.Comm family) through
// internal/emulate, at the 3x worst-case communication overhead the paper's
// Section 7 predicts.
//
// The modulus is the NTT-friendly prime p = 119·2^23 + 1 = 998244353 with
// primitive root 3, supporting transforms up to 2^23 points — far beyond
// any simulable dual-cube.
package ntt

import (
	"fmt"

	"dualcube/internal/emulate"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Mod is the NTT prime modulus.
const Mod = 998244353

// Root is a primitive root modulo Mod.
const Root = 3

// mulmod returns a*b mod Mod (operands already reduced; the product fits
// int64 since Mod < 2^30).
func mulmod(a, b uint64) uint64 { return a * b % Mod }

// PowMod returns base^exp mod Mod.
func PowMod(base, exp uint64) uint64 {
	base %= Mod
	result := uint64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result = mulmod(result, base)
		}
		base = mulmod(base, base)
		exp >>= 1
	}
	return result
}

// inv returns the modular inverse via Fermat's little theorem.
func inv(a uint64) uint64 { return PowMod(a, Mod-2) }

// bitrev reverses the low q bits of x.
func bitrev(x, q int) int {
	r := 0
	for i := 0; i < q; i++ {
		r |= (x >> i & 1) << (q - 1 - i)
	}
	return r
}

// butterflyStep returns the StepFunc of the decimation-in-time butterfly:
// at stage s = dim+1 the block size is 2^s; the node whose bit dim is 0
// holds the even-half value a and computes a + w·b, its partner computes
// a - w·b, with twiddle w = wstage^(id mod 2^dim) for wstage a 2^s-th root
// of unity.
func butterflyStep(invert bool) emulate.StepFunc[uint64] {
	return func(dim, id int, mine, theirs uint64) uint64 {
		order := uint64(1) << (dim + 1)
		wstage := PowMod(Root, (Mod-1)/order)
		if invert {
			wstage = inv(wstage)
		}
		j := uint64(id & (1<<dim - 1))
		w := PowMod(wstage, j)
		if id>>dim&1 == 0 {
			return (mine + mulmod(w, theirs)) % Mod
		}
		// mine = b (odd half), theirs = a: a - w·b mod p.
		return (theirs + Mod - mulmod(w, mine)) % Mod
	}
}

// load checks an N = 2^q point transform over the N nodes of name and
// returns the input reduced mod p in decimation-in-time order: node r
// starts with coefficient bitrev(r).
func load(name string, q int, in []uint64) ([]uint64, error) {
	if q < 0 || q > 23 {
		return nil, fmt.Errorf("ntt: size 2^%d is outside the 2^23-point capability of the modulus", q)
	}
	N := 1 << q
	if len(in) != N {
		return nil, fmt.Errorf("ntt: %d coefficients for %d nodes of %s", len(in), N, name)
	}
	init := make([]uint64, N)
	for r := range init {
		init[r] = in[bitrev(r, q)] % Mod
	}
	return init, nil
}

// Transform computes the length-2^(2n-1) NTT of in (natural order in,
// natural order out) on c through its recursive presentation, or the
// inverse transform when invert is set (including the 1/N scaling).
// Communication time is 6n-5 cycles — the emulated cost of the 2n-1
// butterfly stages.
func Transform(cfg machine.Config, c topology.Comm, in []uint64, invert bool) ([]uint64, machine.Stats, error) {
	init, err := load(c.Name(), c.RecDims(), in)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	out, st, err := emulate.Ascend(cfg, c, init, butterflyStep(invert))
	if err != nil {
		return nil, st, err
	}
	if invert {
		nInv := inv(uint64(len(out)))
		for i := range out {
			out[i] = mulmod(out[i], nInv)
		}
	}
	return out, st, nil
}

// CubeTransform is the baseline: the same butterfly on the hypercube Q_q
// (one cycle per stage, q cycles total).
func CubeTransform(cfg machine.Config, q int, in []uint64, invert bool) ([]uint64, machine.Stats, error) {
	init, err := load(fmt.Sprintf("Q_%d", q), q, in)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	return emulate.CubeAscend(cfg, q, init, butterflyStep(invert))
}

// Sequential computes the NTT (or inverse) by the O(N^2) definition — the
// golden model for tests. N need not be a dual-cube size.
func Sequential(in []uint64, invert bool) []uint64 {
	N := len(in)
	out := make([]uint64, N)
	w := PowMod(Root, (Mod-1)/uint64(N))
	if invert {
		w = inv(w)
	}
	for k := 0; k < N; k++ {
		acc := uint64(0)
		wk := PowMod(w, uint64(k))
		x := uint64(1)
		for t := 0; t < N; t++ {
			acc = (acc + mulmod(in[t]%Mod, x)) % Mod
			x = mulmod(x, wk)
		}
		out[k] = acc
	}
	if invert {
		nInv := inv(uint64(N))
		for i := range out {
			out[i] = mulmod(out[i], nInv)
		}
	}
	return out
}

// PolyMul multiplies two polynomials with coefficients mod p on c: three
// distributed transforms plus a local pointwise product. len(a)+len(b)-1
// must not exceed 2^(2n-1).
func PolyMul(cfg machine.Config, c topology.Comm, a, b []uint64) ([]uint64, machine.Stats, error) {
	N := c.Nodes()
	if len(a) == 0 || len(b) == 0 {
		return nil, machine.Stats{}, fmt.Errorf("ntt: empty polynomial")
	}
	outLen := len(a) + len(b) - 1
	if outLen > N {
		return nil, machine.Stats{}, fmt.Errorf("ntt: product degree %d exceeds transform size %d", outLen-1, N-1)
	}
	pa := make([]uint64, N)
	pb := make([]uint64, N)
	copy(pa, a)
	copy(pb, b)

	fa, st1, err := Transform(cfg, c, pa, false)
	if err != nil {
		return nil, st1, err
	}
	fb, st2, err := Transform(cfg, c, pb, false)
	if err != nil {
		return nil, st2, err
	}
	// Pointwise product: a purely local computation round at every node.
	for i := range fa {
		fa[i] = mulmod(fa[i], fb[i])
	}
	res, st3, err := Transform(cfg, c, fa, true)
	if err != nil {
		return nil, st3, err
	}
	// The three transforms plus the one pointwise-multiplication round,
	// which costs a single parallel step on every node.
	total := st1.Add(st2).Add(st3).Add(machine.Stats{
		Nodes:    st1.Nodes,
		MaxOps:   1,
		TotalOps: int64(st1.Nodes),
	})
	return res[:outLen], total, nil
}
