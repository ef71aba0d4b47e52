package ff64

import (
	"encoding/binary"
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

// BenchmarkVecMulAcc4 times the delayed-reduction kernel on a trailing row
// of the paper's N = 512 system (481 columns right of the first panel) and
// reports ns per multiply-accumulate.
func BenchmarkVecMulAcc4(b *testing.B) {
	const width = 481
	rng := rand.New(rand.NewSource(4))
	var srcs [4][]Elem
	for i := range srcs {
		srcs[i] = randElems(rng, width)
	}
	a := randElems(rng, 4)
	hi, lo := make([]uint64, width), make([]uint64, width)
	VecLoad(hi, lo, randElems(rng, width))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecMulAcc4(hi, lo, a[0], a[1], a[2], a[3], srcs[0], srcs[1], srcs[2], srcs[3])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*width), "ns/mac")
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

// wide returns hi·2⁶⁴ + lo.
func wide(hi, lo uint64) *big.Int {
	v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
	return v.Add(v, new(big.Int).SetUint64(lo))
}

// TestVecMulAccMatchesMulAdd: a full budget of VecMulAcc4 batches, reduced
// once, equals the same products folded in one MulAdd at a time.
func TestVecMulAccMatchesMulAdd(t *testing.T) {
	const n = 97
	rng := rand.New(rand.NewSource(1))
	acc := randElems(rng, n)
	want := append([]Elem(nil), acc...)
	hi, lo := make([]uint64, n), make([]uint64, n)
	VecLoad(hi, lo, acc)
	for round := 0; round < MaxVecMulAcc/4; round++ {
		a := randElems(rng, 4)
		b := [4][]Elem{randElems(rng, n), randElems(rng, n), randElems(rng, n), randElems(rng, n)}
		VecMulAcc4(hi, lo, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		for i := range want {
			for s := range b {
				want[i] = MulAdd(want[i], a[s], b[s][i])
			}
		}
	}
	got := make([]Elem, n)
	VecReduce(got, hi, lo)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: VecMulAcc4 chain = %d, MulAdd chain = %d", i, got[i], want[i])
		}
	}
}

// TestVecMulAccWorstCase: 15 consecutive VecMulAcc4 calls of the largest
// product (60 accumulations, inside MaxVecMulAcc) on top of the largest
// element must not overflow the high limb, in either body.
func TestVecMulAccWorstCase(t *testing.T) {
	const n, calls = 33, 15
	max := Elem(Modulus - 1)
	b := make([]Elem, n)
	for i := range b {
		b[i] = max
	}
	m := new(big.Int).SetUint64(uint64(max))
	want := new(big.Int).Mul(m, m)
	want.Mul(want, big.NewInt(4*calls))
	want.Add(want, m)
	wantWide := new(big.Int).Set(want)
	want.Mod(want, bigMod())
	for _, body := range vecMulAcc4Bodies {
		hi, lo := make([]uint64, n), make([]uint64, n)
		VecLoad(hi, lo, b)
		for range calls {
			body.fn(hi, lo, max, max, max, max, b, b, b, b)
		}
		got := make([]Elem, n)
		VecReduce(got, hi, lo)
		for k := range got {
			if w := wide(hi[k], lo[k]); w.Cmp(wantWide) != 0 {
				t.Fatalf("%s: entry %d accumulated %v, want %v", body.name, k, w, wantWide)
			}
			if uint64(got[k]) != want.Uint64() {
				t.Fatalf("%s: entry %d reduced to %d, want %v", body.name, k, got[k], want)
			}
		}
	}
}

// TestVecMulAcc4MatchesSingle holds one VecMulAcc4 call to math/big: the
// accumulator pair must hold base + Σ a_i·b_i[k] exactly, not just mod q.
func TestVecMulAcc4MatchesSingle(t *testing.T) {
	const n = 53
	rng := rand.New(rand.NewSource(2))
	as := randElems(rng, 4)
	rows := [4][]Elem{randElems(rng, n), randElems(rng, n), randElems(rng, n), randElems(rng, n)}
	base := randElems(rng, n)
	hi, lo := make([]uint64, n), make([]uint64, n)
	VecLoad(hi, lo, base)
	VecMulAcc4(hi, lo, as[0], as[1], as[2], as[3], rows[0], rows[1], rows[2], rows[3])
	got := make([]Elem, n)
	VecReduce(got, hi, lo)
	for k := range got {
		want := new(big.Int).SetUint64(uint64(base[k]))
		for r := range rows {
			p := new(big.Int).SetUint64(uint64(as[r]))
			want.Add(want, p.Mul(p, new(big.Int).SetUint64(uint64(rows[r][k]))))
		}
		if w := wide(hi[k], lo[k]); w.Cmp(want) != 0 {
			t.Fatalf("entry %d: VecMulAcc4 accumulated %v, want %v", k, w, want)
		}
		if want.Mod(want, bigMod()); uint64(got[k]) != want.Uint64() {
			t.Fatalf("entry %d: VecMulAcc4 reduced to %d, want %v", k, got[k], want)
		}
	}
}

// vecMulAcc4Bodies are the bodies VecMulAcc4 can run: whatever this build
// selects (assembly on amd64) and the portable Go loop.
var vecMulAcc4Bodies = []struct {
	name string
	fn   func(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)
}{
	{"VecMulAcc4", VecMulAcc4},
	{"vecMulAcc4Generic", vecMulAcc4Generic},
}

// checkVecMulAcc4 runs VecMulAcc4 and the Go body on the same inputs laid
// out at an odd offset inside longer buffers, and fails unless both leave
// identical accumulator words and neither touches a word past the first n.
func checkVecMulAcc4(t *testing.T, off int, hi0, lo0 []uint64, a [4]Elem, b [4][]Elem) {
	t.Helper()
	const guards, guard = 3, 0xdeadbeefcafef00d
	n := len(b[0])
	var out [2][2][]uint64
	for i, body := range vecMulAcc4Bodies {
		for w, init := range [][]uint64{hi0, lo0} {
			buf := make([]uint64, off+n+guards)
			for j := range buf {
				buf[j] = guard
			}
			copy(buf[off:], init)
			out[i][w] = buf
		}
		hi, lo := out[i][0][off:off+n], out[i][1][off:off+n]
		body.fn(hi, lo, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		for w, buf := range out[i] {
			for j, v := range buf {
				if (j < off || j >= off+n) && v != guard {
					t.Fatalf("%s, n=%d off=%d: word %d outside the accumulator (array %d) changed to %#x", body.name, n, off, j, w, v)
				}
			}
		}
	}
	for w := range out[0] {
		for j := range out[0][w] {
			if out[0][w][j] != out[1][w][j] {
				t.Fatalf("n=%d off=%d: word %d of array %d is %#x, the Go body makes %#x", n, off, j, w, out[0][w][j], out[1][w][j])
			}
		}
	}
}

// TestVecMulAcc4MatchesGeneric compares the body this build runs with the
// portable Go loop over the lengths around the unroll and the panel width,
// a 512-system trailing row and a full row, for operands 0, 1, q−1, random
// and a mix, with b_1..b_3 longer than b_0 and every slice at an odd offset.
func TestVecMulAcc4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []Elem{0, 1, Elem(Modulus - 1)}
	classes := []struct {
		name string
		draw func() Elem
	}{
		{"zero", func() Elem { return 0 }},
		{"one", func() Elem { return 1 }},
		{"q-1", func() Elem { return Elem(Modulus - 1) }},
		{"random", func() Elem { return New(rng.Uint64()) }},
		{"mixed", func() Elem {
			if i := rng.Intn(4); i < len(special) {
				return special[i]
			}
			return New(rng.Uint64())
		}},
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 31, 32, 33, 481, 513} {
		for _, c := range classes {
			for _, off := range []int{1, 3, 7} {
				var a [4]Elem
				var b [4][]Elem
				for s := range b {
					a[s] = c.draw()
					buf := make([]Elem, off+n+s)
					for j := range buf {
						buf[j] = c.draw()
					}
					b[s] = buf[off:]
				}
				b[0] = b[0][:n]
				hi, lo := make([]uint64, n), make([]uint64, n)
				for k := range hi {
					hi[k], lo[k] = rng.Uint64(), rng.Uint64()
				}
				t.Run(c.name, func(t *testing.T) { checkVecMulAcc4(t, off, hi, lo, a, b) })
			}
		}
	}
}

// FuzzVecMulAcc4 holds the body this build runs to the Go loop on arbitrary
// operands, accumulator words, lengths and offsets.
func FuzzVecMulAcc4(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add(make([]byte, 6*8*33), Modulus-1, Modulus-1, Modulus-1, Modulus-1, uint8(1))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x1f0123456789abcdef0123456789abcdef0123456789abcdef"), uint64(1), uint64(2), uint64(3), uint64(4), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, a0, a1, a2, a3 uint64, off uint8) {
		n := len(data) / 48
		var b [4][]Elem
		for s := range b {
			b[s] = make([]Elem, n)
		}
		hi, lo := make([]uint64, n), make([]uint64, n)
		for k := range n {
			w := data[48*k:]
			for s := range b {
				b[s][k] = New(binary.LittleEndian.Uint64(w[8*s:]))
			}
			hi[k], lo[k] = binary.LittleEndian.Uint64(w[32:]), binary.LittleEndian.Uint64(w[40:])
		}
		checkVecMulAcc4(t, int(off%8), hi, lo, [4]Elem{New(a0), New(a1), New(a2), New(a3)}, b)
	})
}
