package g2

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// randDivisor draws a uniformly random Jacobian element through the
// REFERENCE group (double-and-add over polyring), so bugs in the paper
// curve's arithmetic cannot mask themselves in the test fixtures.
func randDivisor(t testing.TB, c *Curve) *Divisor {
	t.Helper()
	k, err := rand.Int(rand.Reader, paperRef.Order())
	if err != nil {
		t.Fatal(err)
	}
	return fromRef(t, c, paperRef.Exp(paperRef.Generator(), k))
}

// TestFastGroupLawDifferential pins the group law to the polyring/ffbig
// reference on random divisors: addition, doubling, inverse, validity.
func TestFastGroupLawDifferential(t *testing.T) {
	c := MustPaperCurve()
	for i := 0; i < 30; i++ {
		a, b := randDivisor(t, c), randDivisor(t, c)
		ra, rb := toRef(t, c, a), toRef(t, c, b)
		sum := c.Op(a, b)
		if ref := paperRef.Op(ra, rb); !sameElement(c, sum, ref) {
			t.Fatalf("Op mismatch:\n a=%v\n b=%v\n got=%v\n ref=%v", a, b, sum, ref)
		}
		if !c.IsValid(sum) || !paperRef.IsValid(toRef(t, c, sum)) {
			t.Fatalf("Op result invalid in one of the groups: %v", sum)
		}
		inv := c.Inverse(a)
		if !sameElement(c, inv, paperRef.Inverse(ra)) {
			t.Fatalf("Inverse mismatch for %v", a)
		}
		if !c.IsIdentity(c.Op(a, inv)) {
			t.Fatalf("a·a⁻¹ != identity for %v", a)
		}
		// Doubling (the u1 = u2 branch of Cantor).
		if !sameElement(c, c.Op(a, a), paperRef.Op(ra, ra)) {
			t.Fatalf("doubling mismatch for %v", a)
		}
	}
	// Identity edge cases.
	id := c.Identity()
	a := randDivisor(t, c)
	if !c.Equal(c.Op(id, a), a) || !c.Equal(c.Op(a, id), a) {
		t.Fatal("identity is not neutral")
	}
	if !c.IsIdentity(c.Op(id, id)) {
		t.Fatal("id+id != id")
	}
	if *c.Identity() != (Divisor{fld: c.fld}) || !c.IsIdentity(&Divisor{}) {
		t.Fatal("the identity is not the zero divisor")
	}
}

// TestFastExpDifferential pins windowed-NAF scalar multiplication to the
// reference double-and-add on random scalars, including the edge exponents.
func TestFastExpDifferential(t *testing.T) {
	c := MustPaperCurve()
	a := randDivisor(t, c)
	ra := toRef(t, c, a)
	edge := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(-1),
		new(big.Int).Sub(c.Order(), big.NewInt(1)),
		c.Order(),
	}
	for _, k := range edge {
		if !sameElement(c, c.Exp(a, k), paperRef.Exp(ra, k)) {
			t.Fatalf("Exp mismatch at edge k=%s", k)
		}
	}
	for i := 0; i < 10; i++ {
		k, err := rand.Int(rand.Reader, c.Order())
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			k.Neg(k)
		}
		if !sameElement(c, c.Exp(a, k), paperRef.Exp(ra, k)) {
			t.Fatalf("Exp mismatch at k=%s", k)
		}
	}
}

// TestFixedBaseDifferential pins the precomputed fixed-base tables to the
// reference exponentiation, on both sides of the in-range shortcut.
func TestFixedBaseDifferential(t *testing.T) {
	c := MustPaperCurve()
	base := randDivisor(t, c)
	rbase := toRef(t, c, base)
	tab := c.NewFixedBase(base)
	edge := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(15), big.NewInt(16), big.NewInt(-3),
		new(big.Int).Sub(c.Order(), big.NewInt(1)), c.Order(), new(big.Int).Lsh(c.Order(), 3),
	}
	for _, k := range edge {
		if !sameElement(c, tab.Exp(k), paperRef.Exp(rbase, k)) {
			t.Fatalf("fixed-base Exp mismatch at k=%s", k)
		}
	}
	for i := 0; i < 10; i++ {
		k, err := rand.Int(rand.Reader, c.Order())
		if err != nil {
			t.Fatal(err)
		}
		if !sameElement(c, tab.Exp(k), paperRef.Exp(rbase, k)) {
			t.Fatalf("fixed-base Exp mismatch at k=%s", k)
		}
	}
}

// TestFastMarshalUnchanged asserts the wire encoding is byte-identical
// across the two implementations: sums marshal to the bytes the reference
// produces, and each group unmarshals the other's encodings.
func TestFastMarshalUnchanged(t *testing.T) {
	c := MustPaperCurve()
	for i := 0; i < 10; i++ {
		a, b := randDivisor(t, c), randDivisor(t, c)
		fastBytes := c.Marshal(c.Op(a, b))
		refBytes := paperRef.Marshal(paperRef.Op(toRef(t, c, a), toRef(t, c, b)))
		if string(fastBytes) != string(refBytes) {
			t.Fatal("marshaled bytes differ between Curve and the reference")
		}
		d1, err := c.Unmarshal(refBytes)
		if err != nil {
			t.Fatalf("Curve rejects a reference encoding: %v", err)
		}
		d2, err := paperRef.Unmarshal(fastBytes)
		if err != nil {
			t.Fatalf("reference rejects a Curve encoding: %v", err)
		}
		if !sameElement(c, d1, d2) {
			t.Fatal("cross-group unmarshal disagreement")
		}
	}
}

// TestGroupAllocs pins the allocation discipline of the group methods: the
// arithmetic runs on values, so Op, Inverse and a fixed-base Exp allocate
// only the returned element, and Equal nothing.
func TestGroupAllocs(t *testing.T) {
	c := MustPaperCurve()
	a, b := randDivisor(t, c), randDivisor(t, c)
	tab := c.NewFixedBase(c.Generator())
	k, err := rand.Int(rand.Reader, c.Order())
	if err != nil {
		t.Fatal(err)
	}
	var sink *Divisor
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Op", 1, func() { sink = c.Op(a, b) }},
		{"Op/doubling", 1, func() { sink = c.Op(a, a) }},
		{"Inverse", 1, func() { sink = c.Inverse(a) }},
		{"FixedBase.Exp", 1, func() { sink = tab.Exp(k) }},
		{"Equal", 0, func() { _ = c.Equal(a, b) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocs per call, want ≤ %v", tc.name, got, tc.max)
		}
	}
	_ = sink
}

func BenchmarkOpFast(b *testing.B) {
	c := MustPaperCurve()
	x := c.Exp(c.Generator(), big.NewInt(12345))
	y := c.Exp(c.Generator(), big.NewInt(67890))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = c.Op(x, y)
	}
}

func BenchmarkOpReference(b *testing.B) {
	c := paperRef
	x := c.Exp(c.Generator(), big.NewInt(12345))
	y := c.Exp(c.Generator(), big.NewInt(67890))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = c.Op(x, y)
	}
}

func BenchmarkExpFast(b *testing.B) {
	c := MustPaperCurve()
	k, _ := rand.Int(rand.Reader, c.Order())
	x := c.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exp(x, k)
	}
}

func BenchmarkExpReference(b *testing.B) {
	c := paperRef
	k, _ := rand.Int(rand.Reader, c.Order())
	x := c.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exp(x, k)
	}
}

func BenchmarkExpFixedBase(b *testing.B) {
	c := MustPaperCurve()
	tab := c.NewFixedBase(c.Generator())
	k, _ := rand.Int(rand.Reader, c.Order())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Exp(k)
	}
}
