package monoid

import (
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
