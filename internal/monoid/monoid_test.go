package monoid

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

// checkMonoidLaws verifies identity and associativity on a sample of
// triples.
func checkMonoidLaws[T comparable](t *testing.T, m Monoid[T], samples []T) {
	t.Helper()
	id := m.Identity()
	for _, x := range samples {
		if m.Combine(id, x) != x {
			t.Errorf("%s: e⊕x != x for x=%v", m.Name, x)
		}
		if m.Combine(x, id) != x {
			t.Errorf("%s: x⊕e != x for x=%v", m.Name, x)
		}
	}
	for _, a := range samples {
		for _, b := range samples {
			for _, c := range samples {
				l := m.Combine(m.Combine(a, b), c)
				r := m.Combine(a, m.Combine(b, c))
				if l != r {
					t.Errorf("%s: associativity fails on (%v,%v,%v)", m.Name, a, b, c)
				}
			}
		}
	}
}

func TestSumLaws(t *testing.T) {
	checkMonoidLaws(t, Sum[int](), []int{-3, 0, 1, 7, 1000})
	checkMonoidLaws(t, Sum[float64](), []float64{-1.5, 0, 2, 8})
}

func TestProdLaws(t *testing.T) {
	checkMonoidLaws(t, prod[int](), []int{-2, 0, 1, 3})
}

func TestMaxMinLaws(t *testing.T) {
	checkMonoidLaws(t, MaxInt(), []int{-50, 0, 50, 1 << 40})
	checkMonoidLaws(t, MinInt(), []int{-50, 0, 50, 1 << 40})
	if MaxInt().Combine(MaxInt().Identity(), 5) != 5 {
		t.Error("max identity broken")
	}
	if MinInt().Combine(7, MinInt().Identity()) != 7 {
		t.Error("min identity broken")
	}
}

func TestXorLaws(t *testing.T) {
	checkMonoidLaws(t, Xor(), []uint64{0, 1, 0xdeadbeef, 1 << 63})
}

func TestConcatLaws(t *testing.T) {
	checkMonoidLaws(t, Concat(), []string{"", "a", "bc", "xyz"})
	// Non-commutativity sanity: the tests rely on it.
	c := Concat()
	if c.Combine("a", "b") == c.Combine("b", "a") {
		t.Error("concat should be non-commutative on distinct operands")
	}
}

func TestBoolOrLaws(t *testing.T) {
	checkMonoidLaws(t, boolOr(), []bool{false, true})
}

func TestMat2Laws(t *testing.T) {
	samples := []Mat2{
		Mat2Identity(),
		{1, 1, 0, 1},
		{2, 0, 0, 3},
		{0, 1, 1, 0},
		{1, 2, 3, 4},
	}
	checkMonoidLaws(t, Mat2Mul(), samples)
	m := Mat2Mul()
	a, b := Mat2{1, 1, 0, 1}, Mat2{1, 0, 1, 1}
	if m.Combine(a, b) == m.Combine(b, a) {
		t.Error("mat2 should be non-commutative on these operands")
	}
}

func TestMat2MulQuick(t *testing.T) {
	// (a*b)*c == a*(b*c) over random small matrices.
	f := func(a, b, c [4]int8) bool {
		ma := Mat2{int64(a[0]), int64(a[1]), int64(a[2]), int64(a[3])}
		mb := Mat2{int64(b[0]), int64(b[1]), int64(b[2]), int64(b[3])}
		mc := Mat2{int64(c[0]), int64(c[1]), int64(c[2]), int64(c[3])}
		return ma.Mul(mb).Mul(mc) == ma.Mul(mb.Mul(mc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountedCombine(t *testing.T) {
	var n atomic.Int64
	m := CountedCombine(Sum[int](), &n)
	if got := m.Combine(2, m.Combine(3, 4)); got != 9 {
		t.Errorf("counted combine changed semantics: %d", got)
	}
	if n.Load() != 2 {
		t.Errorf("counter = %d, want 2", n.Load())
	}
	if m.Name != "sum+counted" {
		t.Errorf("name = %q", m.Name)
	}
	// A counted Sum must not keep Sum's row form: its Scan and Fold go
	// through the counted Combine, one application per element.
	n.Store(0)
	row := []int{1, 2, 3, 4, 5}
	if got := m.Scan(row, row, 0, true); got != 15 {
		t.Errorf("counted Scan total = %d, want 15", got)
	}
	m.Fold(1, row)
	if n.Load() != 10 {
		t.Errorf("counted Scan+Fold of 5 elements: counter = %d, want 10", n.Load())
	}
}

// TestScanFoldOrder pins the per-element row form on a non-commutative
// monoid: the seed and earlier elements combine on the left, and Fold puts
// the offset on the left.
func TestScanFoldOrder(t *testing.T) {
	c := Concat()
	src := []string{"a", "b", "c"}
	for _, tc := range []struct {
		inclusive bool
		want      []string
	}{
		{true, []string{"xa", "xab", "xabc"}},
		{false, []string{"x", "xa", "xab"}},
	} {
		dst := make([]string, 4)
		if total := c.Scan(dst, src, "x", tc.inclusive); total != "xabc" {
			t.Errorf("inclusive=%v: total %q, want xabc", tc.inclusive, total)
		}
		c.Fold("p", dst[:3])
		for i, w := range tc.want {
			if dst[i] != "p"+w {
				t.Errorf("inclusive=%v: dst[%d] = %q, want %q", tc.inclusive, i, dst[i], "p"+w)
			}
		}
		if dst[3] != "" {
			t.Errorf("inclusive=%v: Scan wrote past len(src): %q", tc.inclusive, dst[3])
		}
	}
}

// TestSumRowFormMatchesCombine holds Sum's direct row loops bit-identical
// to the per-element loop of a literal monoid with the same Combine: int64
// sums that wrap, uint8 sums that wrap, and float64 sums whose rounding
// depends on the order (1e16 + 1 - 1e16), scanned inclusive and exclusive
// over rows of 0, 1 and 513 elements, then offset-folded.
func TestSumRowFormMatchesCombine(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		checkRowForm(t, Sum[int64](), math.MaxInt64-2, func(i int) int64 {
			return math.MaxInt64/3 + int64(i)*7919
		}, func(x int64) uint64 { return uint64(x) })
	})
	t.Run("uint8", func(t *testing.T) {
		checkRowForm(t, Sum[uint8](), 250, func(i int) uint8 {
			return uint8(200 + i*37)
		}, func(x uint8) uint64 { return uint64(x) })
	})
	t.Run("float64", func(t *testing.T) {
		mag := [3]float64{1e16, 1, -1e16}
		checkRowForm(t, Sum[float64](), 0.5, func(i int) float64 {
			return mag[i%3] * (1 + float64(i%7)/8)
		}, math.Float64bits)
	})
}

func checkRowForm[T any](t *testing.T, sum Monoid[T], seed T, gen func(i int) T, bits func(T) uint64) {
	t.Helper()
	lit := Monoid[T]{Name: "literal", Identity: sum.Identity, Combine: sum.Combine}
	same := func(what string, got, want []T) {
		t.Helper()
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	for _, n := range []int{0, 1, 513} {
		src := make([]T, n)
		for i := range src {
			src[i] = gen(i)
		}
		for _, inclusive := range []bool{true, false} {
			got, want := make([]T, n), make([]T, n)
			gt, wt := sum.Scan(got, src, seed, inclusive), lit.Scan(want, src, seed, inclusive)
			if bits(gt) != bits(wt) {
				t.Fatalf("n=%d inclusive=%v: Scan total %v, want %v", n, inclusive, gt, wt)
			}
			same("Scan", got, want)
			sum.Fold(seed, got)
			lit.Fold(seed, want)
			same("Fold", got, want)
		}
	}
}

// prod returns the multiplication monoid.
func prod[T Number]() Monoid[T] {
	return Monoid[T]{
		Name:     "prod",
		Identity: func() T { return 1 },
		Combine:  func(a, b T) T { return a * b },
	}
}

// boolOr returns logical disjunction.
func boolOr() Monoid[bool] {
	return Monoid[bool]{
		Name:     "or",
		Identity: func() bool { return false },
		Combine:  func(a, b bool) bool { return a || b },
	}
}
