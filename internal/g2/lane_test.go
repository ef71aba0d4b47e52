package g2

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"ppcd/internal/ff128"
)

// TestLaneExpDifferential pins the lane kernel to the reference engine:
// random lane counts, random scalars of both residue classes (including
// negative and zero), per-lane and shared-scalar modes, identity and
// degree-1 (degenerate) bases. Every lane must marshal byte-identically to
// the reference result — the property the envelope wire format relies on.
func TestLaneExpDifferential(t *testing.T) {
	c := MustPaperCurve()
	rng := mrand.New(mrand.NewSource(7))

	degenerate, err := c.HashToElement([]byte("lane/degenerate-base"))
	if err != nil {
		t.Fatal(err)
	}
	if d := degenerate; d.d.deg != 1 {
		t.Fatalf("expected a degree-1 divisor from HashToElement, got deg %d", d.d.deg)
	}

	for round := 0; round < 8; round++ {
		n := 1 + rng.Intn(9)
		shared := round%2 == 0
		bases := make([]*Divisor, n)
		ks := make([]*big.Int, 0, n)
		if shared {
			k, err := rand.Int(rand.Reader, c.Order())
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				bases[i] = c.Identity()
			case 1:
				bases[i] = degenerate
			default:
				bases[i] = randDivisor(t, c)
			}
			if !shared {
				k, err := rand.Int(rand.Reader, c.Order())
				if err != nil {
					t.Fatal(err)
				}
				switch rng.Intn(5) {
				case 0:
					k.Neg(k) // negative residue class
				case 1:
					k.SetInt64(0)
				case 2:
					k.Add(k, c.Order()) // above-order residue class
				}
				ks = append(ks, k)
			}
		}
		got := c.LaneExp(bases, ks)
		if len(got) != n {
			t.Fatalf("LaneExp returned %d results for %d lanes", len(got), n)
		}
		for i := 0; i < n; i++ {
			k := ks[0]
			if !shared {
				k = ks[i]
			}
			want := paperRef.Exp(toRef(t, c, bases[i]), k)
			if !bytes.Equal(c.Marshal(got[i]), paperRef.Marshal(want)) {
				t.Fatalf("round %d lane %d: LaneExp=%v want %v (base=%v k=%v shared=%v)",
					round, i, got[i], want, bases[i], k, shared)
			}
		}
	}
}

// TestLaneExpSharedBase exercises the shared-table path (every lane the
// same base, per-lane scalars) — the shape of the subscriber's openBitwise.
func TestLaneExpSharedBase(t *testing.T) {
	c := MustPaperCurve()
	base := randDivisor(t, c)
	const n = 7
	bases := make([]*Divisor, n)
	ks := make([]*big.Int, n)
	for i := range bases {
		bases[i] = base
		k, err := rand.Int(rand.Reader, c.Order())
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
	}
	got := c.LaneExp(bases, ks)
	for i := range got {
		if want := paperRef.Exp(toRef(t, c, base), ks[i]); !sameElement(c, got[i], want) {
			t.Fatalf("shared-base lane %d: got %v want %v", i, got[i], want)
		}
	}
}

// TestLaneStatsCounters checks the lane telemetry moves when the kernel
// runs — the -register bench and CI assert on these counters.
func TestLaneStatsCounters(t *testing.T) {
	c := MustPaperCurve()
	lanes0, inv0 := LaneStats()
	bases := []*Divisor{randDivisor(t, c), randDivisor(t, c)}
	k, err := rand.Int(rand.Reader, c.Order())
	if err != nil {
		t.Fatal(err)
	}
	c.LaneExp(bases, []*big.Int{k})
	lanes1, inv1 := LaneStats()
	if lanes1 != lanes0+2 {
		t.Fatalf("lane counter: got %d want %d", lanes1, lanes0+2)
	}
	if inv1 <= inv0 {
		t.Fatalf("batch-inversion counter did not advance (%d -> %d)", inv0, inv1)
	}
}

// TestOneInversionAddDifferential pins the deferred-inversion scalar add
// directly against the full Cantor path on fdiv, covering the generic add,
// the doubling branch and the inverse-pair shortcut.
func TestOneInversionAddDifferential(t *testing.T) {
	c := MustPaperCurve()
	for i := 0; i < 40; i++ {
		a := randDivisor(t, c).d
		b := randDivisor(t, c).d
		pairs := [][2]fdiv{{a, b}, {a, a}, {a, c.neg(a)}, {fdiv{}, b}}
		for _, pr := range pairs {
			got := c.add(pr[0], pr[1])
			want := c.addCantor(pr[0], pr[1])
			if got != want {
				t.Fatalf("one-inversion add diverges from Cantor:\n a=%v\n b=%v", pr[0], pr[1])
			}
		}
	}
}

// translateCurve returns the paper curve moved by x → x + t:
// f̃(x) = f(x + t), whose x⁴ coefficient is 5t. The paper curve itself has
// f₄ = 0 and never exercises the f₄ terms of the group law.
func translateCurve(t *testing.T, c *Curve, shift int64) *Curve {
	t.Helper()
	q := c.Modulus()
	// Horner in (x + t): p ← p·(x + t) + fᵢ, from the monic top down.
	p := []*big.Int{big.NewInt(1)}
	for i := 4; i >= 0; i-- {
		next := make([]*big.Int, len(p)+1)
		for j := range next {
			next[j] = new(big.Int)
			if j > 0 {
				next[j].Set(p[j-1])
			}
			if j < len(p) {
				next[j].Add(next[j], new(big.Int).Mul(p[j], big.NewInt(shift)))
			}
		}
		next[0].Add(next[0], c.fld.ToBig(c.f.c[i]))
		for j := range next {
			next[j].Mod(next[j], q)
		}
		p = next
	}
	if p[5].Cmp(big.NewInt(1)) != 0 || p[4].Sign() == 0 {
		t.Fatalf("translated f = %v: want monic with f₄ ≠ 0", p)
	}
	ct, err := NewCurve(q, [5]*big.Int(p[:5]), c.order, "translated")
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// translateDiv maps a divisor along x → x + t: (u(x), v(x)) ↦ (u(x+t), v(x+t)).
func translateDiv(f *ff128.Field, d fdiv, shift int64) fdiv {
	t := f.FromUint64(uint64(shift))
	out := d
	switch d.deg {
	case 2:
		out.u0 = f.Add(f.Add(f.Sq(t), f.Mul(d.u1, t)), d.u0)
		out.u1 = f.Add(f.Double(t), d.u1)
	case 1:
		out.u0 = f.Add(t, d.u0)
	}
	out.v0 = f.Add(f.Mul(d.v1, t), d.v0)
	return out
}

// TestTranslatedCurveAddDifferential runs the explicit group law where
// f₄ ≠ 0: on the translated curve add must agree with Cantor's algorithm,
// and both with the translate of the sum taken on the paper curve.
func TestTranslatedCurveAddDifferential(t *testing.T) {
	c := MustPaperCurve()
	const shift = 3
	ct := translateCurve(t, c, shift)
	for i := 0; i < 40; i++ {
		a := randDivisor(t, c).d
		b := randDivisor(t, c).d
		for _, pr := range [][2]fdiv{{a, b}, {a, a}, {b, a}, {a, c.neg(a)}} {
			ta, tb := translateDiv(c.fld, pr[0], shift), translateDiv(c.fld, pr[1], shift)
			if !ct.isValid(ta) || !ct.isValid(tb) {
				t.Fatal("translated divisor is not on the translated curve")
			}
			got := ct.add(ta, tb)
			if want := ct.addCantor(ta, tb); got != want {
				t.Fatalf("translated curve: add diverges from Cantor:\n a=%v\n b=%v", ta, tb)
			}
			if want := translateDiv(c.fld, c.add(pr[0], pr[1]), shift); got != want {
				t.Fatalf("translated curve: add is not the translate of the paper-curve sum:\n a=%v\n b=%v", pr[0], pr[1])
			}
		}
	}
}

// curvePoint finds a point (x, y) of the curve at or after x = start.
func curvePoint(t *testing.T, c *Curve, start uint64) (x, y ff128.Elem) {
	t.Helper()
	f := c.fld
	for i := start; i < start+200; i++ {
		x = f.FromUint64(i)
		fx := c.f.c[5]
		for j := 4; j >= 0; j-- {
			fx = f.Add(f.Mul(fx, x), c.f.c[j])
		}
		if y, err := f.Sqrt(fx); err == nil && !y.IsZero() {
			return x, y
		}
	}
	t.Fatal("no curve point found")
	return
}

// twoPointDiv is the reduced divisor P₁ + P₂ − 2∞ of two points with
// distinct x: u = (x − x₁)(x − x₂), v the line through them.
func twoPointDiv(t *testing.T, c *Curve, x1, y1, x2, y2 ff128.Elem) fdiv {
	t.Helper()
	f := c.fld
	dxInv, err := f.Inv(f.Sub(x1, x2))
	if err != nil {
		t.Fatal(err)
	}
	d := fdiv{deg: 2, u1: f.Neg(f.Add(x1, x2)), u0: f.Mul(x1, x2)}
	d.v1 = f.Mul(f.Sub(y1, y2), dxInv)
	d.v0 = f.Sub(y1, f.Mul(d.v1, x1))
	if !c.isValid(d) {
		t.Fatal("constructed divisor is not on the curve")
	}
	return d
}

// TestLaneCombineForcedFallbacks drives every non-generic shape through
// laneCombine next to generic lanes, with the destination aliasing the
// first input, the second, and both: a degree-1 operand, u₁ = u₂ with
// v₁ ≠ ±v₂, operands sharing one root, an inverse pair, the identity on
// either side.
func TestLaneCombineForcedFallbacks(t *testing.T) {
	c := MustPaperCurve()
	f := c.fld
	x1, y1 := curvePoint(t, c, 2)
	x2, y2 := curvePoint(t, c, 300)
	x3, y3 := curvePoint(t, c, 600)
	deg1 := fdiv{deg: 1, u0: f.Neg(x1), v0: y1}
	if !c.isValid(deg1) {
		t.Fatal("degree-1 divisor is not on the curve")
	}
	p12 := twoPointDiv(t, c, x1, y1, x2, y2)
	p12m := twoPointDiv(t, c, x1, y1, x2, f.Neg(y2)) // same u, v ≠ ±v
	p13 := twoPointDiv(t, c, x1, y1, x3, y3)         // shares the root x₁
	g1, g2 := randDivisor(t, c).d, randDivisor(t, c).d
	var id fdiv

	as := []fdiv{deg1, g1, p12, p12, g1, id, g1, deg1, g1, id}
	bs := []fdiv{g1, deg1, p12m, p13, c.neg(g1), g1, id, deg1, g2, id}
	want := make([]fdiv, len(as))
	wantDbl := make([]fdiv, len(as))
	for i := range as {
		want[i] = c.addCantor(as[i], bs[i])
		wantDbl[i] = c.addCantor(as[i], as[i])
		if !c.isValid(want[i]) || !c.isValid(wantDbl[i]) {
			t.Fatalf("lane %d: Cantor reference is not a valid divisor", i)
		}
	}
	ops := make([]laneOp, len(as))
	zs := make([]ff128.Elem, 0, len(as))
	clone := func(ds []fdiv) []fdiv { return append([]fdiv(nil), ds...) }
	check := func(name string, got, want []fdiv) {
		t.Helper()
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s, lane %d: laneCombine diverges from Cantor", name, i)
			}
		}
	}
	x, y := clone(as), clone(bs)
	c.laneCombine(x, x, y, ops, zs)
	check("dst = a", x, want)
	x, y = clone(as), clone(bs)
	c.laneCombine(y, x, y, ops, zs)
	check("dst = b", y, want)
	x = clone(as)
	c.laneCombine(x, x, x, ops, zs)
	check("dst = a = b", x, wantDbl)
	if ops[0].kind != laneFallback || ops[5].kind != laneDirect || ops[8].kind != laneGeneric {
		t.Errorf("doubling pass classified lanes 0, 5, 8 as %v %v %v", ops[0].kind, ops[5].kind, ops[8].kind)
	}
	c.laneCombine(clone(as), as, bs, ops, zs)
	for i, k := range []laneKind{laneFallback, laneFallback, laneFallback, laneFallback, laneDirect, laneDirect, laneDirect, laneFallback, laneGeneric, laneDirect} {
		if ops[i].kind != k {
			t.Errorf("addition pass: lane %d classified %d, want %d", i, ops[i].kind, k)
		}
	}
}

// BenchmarkLaneExp times the lock-step kernel on one chunk of 64 lanes, with
// one base shared by every lane (the subscriber's open path) and with
// distinct bases (the publisher's compose path, which also builds a table
// per lane), and reports the time per lane per group operation.
func BenchmarkLaneExp(b *testing.B) {
	c := MustPaperCurve()
	const lanes = 64
	distinct := make([]*Divisor, lanes)
	shared := make([]*Divisor, lanes)
	ks := make([]*big.Int, lanes)
	opsShared := 0
	for i := range ks {
		k, err := rand.Int(rand.Reader, c.Order())
		if err != nil {
			b.Fatal(err)
		}
		ks[i] = k
		distinct[i] = c.Exp(c.Generator(), big.NewInt(int64(1000+i)))
		shared[i] = distinct[0]
		dg := wnafDigits(k, wnafWidth)
		opsShared += len(dg)
		for _, d := range dg {
			if d != 0 {
				opsShared++
			}
		}
	}
	for _, bc := range []struct {
		name  string
		bases []*Divisor
		ops   int
	}{
		{"shared-base", shared, opsShared},
		{"distinct-bases", distinct, opsShared + 8*lanes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.LaneExp(bc.bases, ks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.ops), "ns/lane-op")
		})
	}
}
