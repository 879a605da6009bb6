package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pct returns the q-quantile (0..1) of the ascending slice s, interpolating
// linearly between the two closest ranks; NaN when s is empty.
func pct(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is pct(sorted(xs), 0.5).
func median(xs []float64) float64 { return pct(sorted(xs), 0.5) }

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so a
// spread printed here matches one computed from the same values elsewhere.
// With fewer than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld, m, n := len(s), len(s)+1, 4
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// tail picks the highest of p99.9, p99 and p90 that has at least ten samples
// beyond it, so a reported tail is never the single worst sample. ok is false
// when even p90 has fewer than ten samples beyond it.
func tail(s []float64) (name string, v float64, ok bool) {
	for _, t := range []struct {
		name string
		q    float64
	}{{"p999", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(s))*(1-t.q) >= 10 {
			return t.name, pct(s, t.q), true
		}
	}
	return "", 0, false
}

// metric is one named measurement with its unit and the number of samples
// it summarises.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

func (m metric) String() string {
	return fmt.Sprintf("%-34s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
}
