package ntt

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dualcube/internal/emulate"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

func TestPowMod(t *testing.T) {
	if PowMod(2, 10) != 1024 {
		t.Error("2^10")
	}
	if PowMod(Root, Mod-1) != 1 {
		t.Error("Fermat: g^(p-1) != 1")
	}
	if mulmod(inv(12345), 12345) != 1 {
		t.Error("modular inverse broken")
	}
	// Root really has 2-adic order >= 2^23.
	if PowMod(Root, (Mod-1)/2) == 1 {
		t.Error("Root is not a primitive root")
	}
}

func TestBitrev(t *testing.T) {
	if bitrev(0b001, 3) != 0b100 || bitrev(0b110, 3) != 0b011 || bitrev(5, 5) != 0b10100 {
		t.Error("bitrev broken")
	}
	for q := 1; q <= 8; q++ {
		for x := 0; x < 1<<q; x++ {
			if bitrev(bitrev(x, q), q) != x {
				t.Fatalf("bitrev not involutive at q=%d x=%d", q, x)
			}
		}
	}
}

func TestTransformMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]uint64, N)
		for i := range in {
			in[i] = rng.Uint64() % Mod
		}
		got, st, err := Transform(machine.Config{}, topology.MustDualCube(n), in, false)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := Sequential(in, false)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: NTT wrong at %d: %d vs %d", n, i, got[i], want[i])
			}
		}
		if st.Cycles != emulate.CommSteps(n) {
			t.Errorf("n=%d: comm %d, want %d", n, st.Cycles, emulate.CommSteps(n))
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 4; n++ {
		N := 1 << (2*n - 1)
		in := make([]uint64, N)
		for i := range in {
			in[i] = rng.Uint64() % Mod
		}
		fwd, _, err := Transform(machine.Config{}, topology.MustDualCube(n), in, false)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := Transform(machine.Config{}, topology.MustDualCube(n), fwd, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if back[i] != in[i] {
				t.Fatalf("n=%d: round trip broke coefficient %d", n, i)
			}
		}
	}
}

// TestShardedTransform runs the transform on D_7 (8192 nodes), past the
// direct executor's sharding threshold, over three workers: it must match
// the Q_13 baseline and invert back to its input.
func TestShardedTransform(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(7))
	in := make([]uint64, 1<<(2*n-1))
	for i := range in {
		in[i] = rng.Uint64() % Mod
	}
	cfg := machine.Config{Workers: 3}
	fwd, _, err := Transform(cfg, topology.MustDualCube(n), in, false)
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := CubeTransform(cfg, 2*n-1, in, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fwd, cube) {
		t.Fatal("D_7 transform differs from the Q_13 baseline")
	}
	back, _, err := Transform(cfg, topology.MustDualCube(n), fwd, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, in) {
		t.Fatal("D_7 round trip did not return the input")
	}
}

func TestCubeTransformMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3
	N := 1 << (2*n - 1)
	in := make([]uint64, N)
	for i := range in {
		in[i] = rng.Uint64() % Mod
	}
	dual, stD, err := Transform(machine.Config{}, topology.MustDualCube(n), in, false)
	if err != nil {
		t.Fatal(err)
	}
	cube, stQ, err := CubeTransform(machine.Config{}, 2*n-1, in, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dual {
		if dual[i] != cube[i] {
			t.Fatalf("dual/cube transforms disagree at %d", i)
		}
	}
	if stQ.Cycles != 2*n-1 {
		t.Errorf("cube comm %d, want %d", stQ.Cycles, 2*n-1)
	}
	if stD.Cycles <= stQ.Cycles || stD.Cycles > 3*stQ.Cycles {
		t.Errorf("emulation overhead out of range: %d vs %d", stD.Cycles, stQ.Cycles)
	}
}

func TestPolyMul(t *testing.T) {
	// (1 + 2x + 3x^2) * (4 + 5x) = 4 + 13x + 22x^2 + 15x^3
	got, _, err := PolyMul(machine.Config{}, topology.MustDualCube(2), []uint64{1, 2, 3}, []uint64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{4, 13, 22, 15}
	if len(got) != len(want) {
		t.Fatalf("product length %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PolyMul = %v, want %v", got, want)
		}
	}
}

func TestPolyMulRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(2) // D_2 or D_3
		N := 1 << (2*n - 1)
		la := 1 + rng.Intn(N/2)
		lb := 1 + rng.Intn(N-la) // ensures la+lb-1 <= N-? keep within
		if la+lb-1 > N {
			lb = N - la + 1
		}
		a := make([]uint64, la)
		b := make([]uint64, lb)
		for i := range a {
			a[i] = rng.Uint64() % Mod
		}
		for i := range b {
			b[i] = rng.Uint64() % Mod
		}
		got, _, err := PolyMul(machine.Config{}, topology.MustDualCube(n), a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, la+lb-1)
		for i := range a {
			for j := range b {
				want[i+j] = (want[i+j] + mulmod(a[i], b[j])) % Mod
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: coefficient %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPolyMulBadInputs(t *testing.T) {
	if _, _, err := PolyMul(machine.Config{}, topology.MustDualCube(2), nil, []uint64{1}); err == nil {
		t.Error("empty polynomial should fail")
	}
	if _, _, err := PolyMul(machine.Config{}, topology.MustDualCube(2), make([]uint64, 8), make([]uint64, 8)); err == nil {
		t.Error("overflowing degree should fail")
	}
}

func TestTransformBadInputs(t *testing.T) {
	if _, _, err := Transform(machine.Config{}, topology.MustDualCube(2), nil, false); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := Transform(machine.Config{}, topology.MustDualCube(2), make([]uint64, 5), false); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSequentialParsevalQuick(t *testing.T) {
	// Linearity of the sequential golden model (sanity of the oracle
	// itself): NTT(a+b) = NTT(a) + NTT(b) pointwise.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 8
		a := make([]uint64, N)
		b := make([]uint64, N)
		ab := make([]uint64, N)
		for i := 0; i < N; i++ {
			a[i] = rng.Uint64() % Mod
			b[i] = rng.Uint64() % Mod
			ab[i] = (a[i] + b[i]) % Mod
		}
		fa := Sequential(a, false)
		fb := Sequential(b, false)
		fab := Sequential(ab, false)
		for i := 0; i < N; i++ {
			if fab[i] != (fa[i]+fb[i])%Mod {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
