package ff64

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func bigMod() *big.Int { return new(big.Int).SetUint64(Modulus) }

func TestModulusIsPrime(t *testing.T) {
	if !bigMod().ProbablyPrime(64) {
		t.Fatal("modulus is not prime")
	}
}

func TestNewReduces(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{Modulus, 0},
		{Modulus + 1, 1},
		{^uint64(0), 7}, // 2^64-1 = 8q+7
	}
	for _, c := range cases {
		if got := uint64(New(c.in)); got != c.want {
			t.Errorf("New(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesBigInt(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		got := uint64(Mul(x, y))
		want := new(big.Int).Mul(new(big.Int).SetUint64(uint64(x)), new(big.Int).SetUint64(uint64(y)))
		want.Mod(want, bigMod())
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		if Mul(x, y) != Mul(y, x) {
			return false
		}
		return Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return Add(x, Neg(x)) == Zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Neg(Zero) != Zero {
		t.Error("Neg(0) != 0")
	}
}

func TestInv(t *testing.T) {
	if _, err := Inv(Zero); err == nil {
		t.Error("Inv(0) should fail")
	}
	f := func(a uint64) bool {
		x := New(a)
		if x == Zero {
			x = One
		}
		inv, err := Inv(x)
		if err != nil {
			return false
		}
		return Mul(x, inv) == One
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInvMatchesExp holds Inv's addition chain to square-and-multiply by
// q − 2, bit for bit.
func TestInvMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []Elem{1, 2, Elem(Modulus - 1), Elem(Modulus - 2), 1 << 60}
	for range 1000 {
		if e := New(rng.Uint64()); e != 0 {
			cases = append(cases, e)
		}
	}
	for _, a := range cases {
		got, err := Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if want := Exp(a, Modulus-2); got != want {
			t.Fatalf("Inv(%d) = %d, Exp(a, q−2) = %d", a, got, want)
		}
	}
}

func TestDiv(t *testing.T) {
	if _, err := Div(One, Zero); err == nil {
		t.Error("Div by zero should fail")
	}
	got, err := Div(New(84), New(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != New(42) {
		t.Errorf("84/2 = %v, want 42", got)
	}
}

func TestExp(t *testing.T) {
	// Fermat: a^(q-1) = 1 for a != 0.
	for _, a := range []Elem{One, New(2), New(12345), New(Modulus - 1)} {
		if Exp(a, Modulus-1) != One {
			t.Errorf("Fermat violated for %v", a)
		}
	}
	if Exp(New(2), 10) != New(1024) {
		t.Error("2^10 != 1024")
	}
	if Exp(New(5), 0) != One {
		t.Error("x^0 != 1")
	}
}

func TestMustInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInv(0) did not panic")
		}
	}()
	MustInv(Zero)
}

func TestRandInRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		e, err := Rand()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(e) >= Modulus {
			t.Fatalf("Rand out of range: %d", e)
		}
	}
}

func TestRandNonZero(t *testing.T) {
	for i := 0; i < 50; i++ {
		e, err := RandNonZero()
		if err != nil {
			t.Fatal(err)
		}
		if e == Zero {
			t.Fatal("RandNonZero returned zero")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		y, err := FromBytes(x.Bytes())
		return err == nil && x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := FromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("short encoding should fail")
	}
}

func TestString(t *testing.T) {
	if New(42).String() != "42" {
		t.Error("String mismatch")
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := New(0x123456789abcdef), New(0xfedcba987654321)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	x := New(0x123456789abcdef)
	for i := 0; i < b.N; i++ {
		x, _ = Inv(x)
	}
	_ = x
}

func TestMulAddMatchesMulThenAdd(t *testing.T) {
	f := func(acc, a, b uint64) bool {
		x, y, z := New(acc), New(a), New(b)
		return MulAdd(x, y, z) == Add(x, Mul(y, z))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// Extremes: the largest reduced operands must stay inside reduce128's
	// input range after fusing the accumulator into the product.
	max := Elem(Modulus - 1)
	if got, want := MulAdd(max, max, max), Add(max, Mul(max, max)); got != want {
		t.Errorf("MulAdd at field max: got %v want %v", got, want)
	}
	if got, want := MulAdd(max, 0, max), max; got != want {
		t.Errorf("MulAdd(max, 0, max): got %v want %v", got, want)
	}
}

func BenchmarkMulAdd(b *testing.B) {
	x, y := New(0x123456789abcdef), New(0xfedcba987654321)
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc = MulAdd(acc, x, y)
	}
	_ = acc
}

func TestReduce128Wide(t *testing.T) {
	cases := []struct{ hi, lo uint64 }{
		{0, 0},
		{0, Modulus},
		{0, Modulus - 1},
		{0, ^uint64(0)},
		{1, 0},
		{1, ^uint64(0)},
		{Modulus, Modulus},
		{^uint64(0), ^uint64(0)},
		{1 << 60, 12345},
		{(1 << 61) - 1, (1 << 61) - 1},
	}
	for _, c := range cases {
		got := Reduce128Wide(c.hi, c.lo)
		// Reference: (hi·2⁶⁴ + lo) mod q via big-int-free double reduction:
		// hi·2⁶⁴ ≡ hi·8, computed with the narrow-range reduce path.
		want := Add(Mul(New(c.hi), New(8)), New(c.lo))
		if got != want {
			t.Fatalf("Reduce128Wide(%d,%d) = %d, want %d", c.hi, c.lo, got, want)
		}
		if uint64(got) >= Modulus {
			t.Fatalf("Reduce128Wide(%d,%d) = %d not in canonical range", c.hi, c.lo, got)
		}
	}
}

func randElems(rng *rand.Rand, n int) []Elem {
	v := make([]Elem, n)
	for i := range v {
		v[i] = New(rng.Uint64())
	}
	return v
}
