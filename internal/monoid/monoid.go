// Package monoid defines the associative-operator abstraction that the
// paper's parallel prefix computation is generic over, together with the
// standard instances used by the examples, tests and benchmarks.
//
// The paper only requires an associative binary operation ⊕; the prefix
// algorithms additionally need an identity element to represent empty
// (diminished) prefixes, hence a monoid. Commutativity is NOT assumed:
// every implementation in this repository combines operands strictly in
// element order, and the test suite checks this with string concatenation
// and 2x2 matrix multiplication.
package monoid

import "sync/atomic"

// Monoid is an associative binary operation with identity. Combine must be
// associative; Identity must return a fresh two-sided identity element.
// Combine must not mutate its operands.
type Monoid[T any] struct {
	// Name identifies the operator in reports and benchmarks.
	Name string
	// Identity returns the identity element e with e⊕x = x⊕e = x.
	Identity func() T
	// Combine returns a⊕b.
	Combine func(a, b T) T
}

// Number is the constraint for the arithmetic monoids below.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Sum returns the addition monoid.
func Sum[T Number]() Monoid[T] {
	return Monoid[T]{
		Name:     "sum",
		Identity: func() T { var z T; return z },
		Combine:  func(a, b T) T { return a + b },
	}
}

// MaxInt returns the maximum monoid over int with identity math.MinInt
// (safe because Combine never overflows).
func MaxInt() Monoid[int] {
	const minInt = -1 << 63
	return Monoid[int]{
		Name:     "max",
		Identity: func() int { return minInt },
		Combine: func(a, b int) int {
			if a >= b {
				return a
			}
			return b
		},
	}
}

// MinInt returns the minimum monoid over int.
func MinInt() Monoid[int] {
	const maxInt = 1<<63 - 1
	return Monoid[int]{
		Name:     "min",
		Identity: func() int { return maxInt },
		Combine: func(a, b int) int {
			if a <= b {
				return a
			}
			return b
		},
	}
}

// Xor returns the bitwise exclusive-or monoid (its own inverse: handy for
// fault-injection tests).
func Xor() Monoid[uint64] {
	return Monoid[uint64]{
		Name:     "xor",
		Identity: func() uint64 { return 0 },
		Combine:  func(a, b uint64) uint64 { return a ^ b },
	}
}

// Concat returns string concatenation: the canonical non-commutative
// monoid. Prefix results reveal any combine-order mistake immediately.
func Concat() Monoid[string] {
	return Monoid[string]{
		Name:     "concat",
		Identity: func() string { return "" },
		Combine:  func(a, b string) string { return a + b },
	}
}

// Mat2 is a 2x2 integer matrix in row-major order.
type Mat2 [4]int64

// Mat2Identity is the 2x2 identity matrix.
func Mat2Identity() Mat2 { return Mat2{1, 0, 0, 1} }

// Mul returns the matrix product a*b.
func (a Mat2) Mul(b Mat2) Mat2 {
	return Mat2{
		a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
		a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
	}
}

// Mat2Mul returns 2x2 matrix multiplication: associative, non-commutative.
// (Prefix products of [[1,1],[0,1]]-style matrices compute linear
// recurrences, a classic parallel-prefix application.)
func Mat2Mul() Monoid[Mat2] {
	return Monoid[Mat2]{
		Name:     "mat2",
		Identity: Mat2Identity,
		Combine:  func(a, b Mat2) Mat2 { return a.Mul(b) },
	}
}

// CountedCombine wraps m so every Combine application atomically increments
// counter (Combine may run concurrently on many simulated nodes). Tests use
// it to validate the paper's computation-step accounting against raw
// operator applications.
func CountedCombine[T any](m Monoid[T], counter *atomic.Int64) Monoid[T] {
	inner := m.Combine
	m.Combine = func(a, b T) T {
		counter.Add(1)
		return inner(a, b)
	}
	m.Name = m.Name + "+counted"
	return m
}
