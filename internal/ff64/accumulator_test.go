package ff64

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

func (b body) String() string {
	return [...]string{"auto", "generic", "mulq", "ifma"}[b]
}

// testBodies are every body an Accumulator has, in the order tests run them.
var testBodies = []body{bodyGeneric, bodyMULQ, bodyIFMA}

// unavailable returns why b cannot run in this build on this CPU, or "" when
// it can.
func unavailable(b body) string {
	switch {
	case b == bodyGeneric:
		return ""
	case selected == bodyGeneric:
		return "this build has no assembly (purego, or not amd64)"
	case b == bodyIFMA && selected != bodyIFMA:
		return "the CPU lacks AVX-512F or AVX512_IFMA, or the OS does not save the ZMM state"
	}
	return ""
}

// forEachBody runs f in a subtest per body, skipping, with the reason, a body
// that cannot run here.
func forEachBody(t *testing.T, f func(t *testing.T, b body)) {
	for _, b := range testBodies {
		t.Run(b.String(), func(t *testing.T) {
			if why := unavailable(b); why != "" {
				t.Skipf("no %s body: %s", b, why)
			}
			f(t, b)
		})
	}
}

// TestSelectedBody logs the body a zero-value Accumulator runs here, and
// fails if start-up passed over one the CPU supports.
func TestSelectedBody(t *testing.T) {
	t.Logf("selected body: %s", selected)
	if cpuHasIFMA() && selected != bodyIFMA {
		t.Fatalf("the CPU has AVX-512 IFMA but the %s body was selected", selected)
	}
	var a Accumulator
	a.Grow(1)
	if a.body != selected {
		t.Fatalf("a zero-value Accumulator took the %s body, want %s", a.body, selected)
	}
}

// wide returns hi·2⁶⁴ + lo.
func wide(hi, lo uint64) *big.Int {
	v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
	return v.Add(v, new(big.Int).SetUint64(lo))
}

// exact returns the integer element k of a holds, in its body's
// representation.
func exact(a *Accumulator, k int) *big.Int {
	if a.body != bodyIFMA {
		return wide(a.l[1][k], a.l[0][k])
	}
	v := new(big.Int).SetUint64(a.l[2][k])
	v.Lsh(v, 52).Add(v, new(big.Int).SetUint64(a.l[1][k]))
	return v.Lsh(v, 52).Add(v, new(big.Int).SetUint64(a.l[0][k]))
}

const guard = 0xdeadbeefcafef00d

// guardedAcc is an Accumulator of body b and capacity n whose limbs sit at
// offset off of one buffer, each followed by three guard words, so a body
// that reads or writes past a limb shows.
type guardedAcc struct {
	Accumulator
	buf    []uint64
	off, n int
}

const guards = 3

func newGuardedAcc(b body, n, off int) *guardedAcc {
	stride := n + guards
	g := &guardedAcc{Accumulator: Accumulator{body: b}, buf: make([]uint64, off+b.limbs()*stride), off: off, n: n}
	for j := range g.buf {
		g.buf[j] = guard
	}
	for i := range b.limbs() {
		s := off + i*stride
		g.l[i] = g.buf[s : s+n : s+n]
	}
	return g
}

// check fails if a word outside every limb changed.
func (g *guardedAcc) check(t *testing.T) {
	t.Helper()
	stride := g.n + guards
	for j, v := range g.buf {
		if r := j - g.off; (r < 0 || r%stride >= g.n) && v != guard {
			t.Fatalf("%s, n=%d off=%d: word %d outside the limbs changed to %#x", g.body, g.n, g.off, j, v)
		}
	}
}

// guardedElems returns n elements at offset off of a buffer that carries
// guard words before and after them.
func guardedElems(n, off int) (v, buf []Elem) {
	buf = make([]Elem, off+n+guards)
	for j := range buf {
		buf[j] = guard & Elem(Modulus)
	}
	return buf[off : off+n : off+n], buf
}

// operandClass draws the operands of one test case.
type operandClass struct {
	name string
	draw func() Elem
}

func operandClasses(rng *rand.Rand) []operandClass {
	special := []Elem{0, 1, Elem(Modulus - 1)}
	return []operandClass{
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
}

// accCase is one Load, a run of MulAcc4 calls and a Reduce.
type accCase struct {
	base  []Elem
	mults [][4]Elem
	srcs  [][4][]Elem // per call; b_0 is len(base) long, b_1..b_3 longer
}

func drawAccCase(n, calls, off int, draw func() Elem) accCase {
	c := accCase{base: make([]Elem, n)}
	for k := range c.base {
		c.base[k] = draw()
	}
	for range calls {
		var m [4]Elem
		var b [4][]Elem
		for s := range b {
			m[s] = draw()
			buf := make([]Elem, off+n+s)
			for j := range buf {
				buf[j] = draw()
			}
			b[s] = buf[off:]
		}
		b[0] = b[0][:n]
		c.mults, c.srcs = append(c.mults, m), append(c.srcs, b)
	}
	return c
}

// want returns base[k] + Σ a_i·b_i[k] as an integer.
func (c *accCase) want(k int) *big.Int {
	w := new(big.Int).SetUint64(uint64(c.base[k]))
	for i, m := range c.mults {
		for s := range m {
			p := new(big.Int).SetUint64(uint64(m[s]))
			w.Add(w, p.Mul(p, new(big.Int).SetUint64(uint64(c.srcs[i][s][k]))))
		}
	}
	return w
}

// run drives c through an Accumulator of body b laid out at offset off with
// guard words past every limb and past the output, and fails unless every
// element accumulates to the exact integer and reduces to it mod q.
func (c *accCase) run(t *testing.T, b body, off int) {
	t.Helper()
	n := len(c.base)
	a := newGuardedAcc(b, n, off)
	a.Load(c.base)
	for i, m := range c.mults {
		s := c.srcs[i]
		a.MulAcc4(m[0], m[1], m[2], m[3], s[0], s[1], s[2], s[3])
	}
	a.check(t)
	out, buf := guardedElems(n, off)
	a.Reduce(out)
	a.check(t)
	for j := off + n; j < len(buf); j++ {
		if buf[j] != guard&Elem(Modulus) {
			t.Fatalf("%s, n=%d off=%d: Reduce wrote past the output", b, n, off)
		}
	}
	q := bigMod()
	for k := range n {
		w := c.want(k)
		if got := exact(&a.Accumulator, k); got.Cmp(w) != 0 {
			t.Fatalf("%s, n=%d off=%d: element %d accumulated %v, want %v", b, n, off, k, got, w)
		}
		if w.Mod(w, q); uint64(out[k]) != w.Uint64() {
			t.Fatalf("%s, n=%d off=%d: element %d reduced to %d, want %v", b, n, off, k, out[k], w)
		}
	}
}

// TestAccumulatorBodiesAgree holds every body to math/big over the lengths
// around the eight-element vector and its tail, the panel width, a 128-row
// shard, a 512-system trailing row and a full one: operands 0, 1, q−1,
// random and a mix, three MulAcc4 calls, sources longer than b_0, and limbs,
// sources and output at odd offsets with guard words past each.
func TestAccumulatorBodiesAgree(t *testing.T) {
	var lengths []int
	for n := range 18 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 31, 32, 33, 129, 481, 513)
	forEachBody(t, func(t *testing.T, b body) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range lengths {
			for _, cl := range operandClasses(rng) {
				for _, off := range []int{1, 3} {
					c := drawAccCase(n, 3, off, cl.draw)
					c.run(t, b, off)
				}
			}
		}
	})
}

// TestAccumulatorFullBudget: MaxVecMulAcc sources of q−1 on top of q−1, the
// largest sum a caller may build, checked against math/big in every body.
func TestAccumulatorFullBudget(t *testing.T) {
	max := Elem(Modulus - 1)
	forEachBody(t, func(t *testing.T, b body) {
		for _, n := range []int{19, 64} {
			c := drawAccCase(n, (MaxVecMulAcc+3)/4, 1, func() Elem { return max })
			c.mults[len(c.mults)-1][3] = 0 // 4·16 − 1 = 63 sources
			c.run(t, b, 1)
			want := new(big.Int).SetUint64(uint64(max))
			want.Mul(want, want).Mul(want, big.NewInt(MaxVecMulAcc)).Add(want, new(big.Int).SetUint64(uint64(max)))
			if got := c.want(0); got.Cmp(want) != 0 {
				t.Fatalf("the case sums to %v, want %v", got, want)
			}
		}
	})
}

// FuzzAccumulate holds every body this CPU runs to math/big on arbitrary
// rows, sources, multipliers, batch counts up to the budget and offsets.
func FuzzAccumulate(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint64(0), uint8(1), uint8(0))
	f.Add(make([]byte, 5*8*17), Modulus-1, Modulus-1, Modulus-1, Modulus-1, uint8(15), uint8(1))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x1f0123456789abcdef0123456789abcdef0123456789abcdef"), uint64(1), uint64(2), uint64(3), uint64(4), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, a0, a1, a2, a3 uint64, calls, off uint8) {
		n := len(data) / 40
		c := accCase{base: make([]Elem, n)}
		var b [4][]Elem
		for s := range b {
			b[s] = make([]Elem, n)
		}
		for k := range n {
			w := data[40*k:]
			c.base[k] = New(binary.LittleEndian.Uint64(w))
			for s := range b {
				b[s][k] = New(binary.LittleEndian.Uint64(w[8+8*s:]))
			}
		}
		for i := range int(calls % (MaxVecMulAcc/4 + 1)) {
			r := uint64(i)
			c.mults = append(c.mults, [4]Elem{New(a0 + r), New(a1 ^ r), New(a2 - r), New(a3 * (r + 1))})
			c.srcs = append(c.srcs, [4][]Elem{b[i%4], b[(i+1)%4], b[(i+2)%4], b[(i+3)%4]})
		}
		for _, bd := range testBodies {
			if unavailable(bd) == "" {
				c.run(t, bd, 1+int(off%8))
			}
		}
	})
}

// TestVecMulAccMatchesMulAdd: a full budget of MulAcc4 batches, reduced
// once, equals the same products folded in one MulAdd at a time.
func TestVecMulAccMatchesMulAdd(t *testing.T) {
	const n = 97
	forEachBody(t, func(t *testing.T, b body) {
		rng := rand.New(rand.NewSource(1))
		row := randElems(rng, n)
		want := append([]Elem(nil), row...)
		a := Accumulator{body: b}
		a.Grow(n)
		a.Load(row)
		for round := 0; round < MaxVecMulAcc/4; round++ {
			m := randElems(rng, 4)
			s := [4][]Elem{randElems(rng, n), randElems(rng, n), randElems(rng, n), randElems(rng, n)}
			a.MulAcc4(m[0], m[1], m[2], m[3], s[0], s[1], s[2], s[3])
			for i := range want {
				for j := range s {
					want[i] = MulAdd(want[i], m[j], s[j][i])
				}
			}
		}
		got := make([]Elem, n)
		a.Reduce(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("entry %d: MulAcc4 chain = %d, MulAdd chain = %d", i, got[i], want[i])
			}
		}
	})
}

// TestVecMulAccWorstCase: 15 consecutive MulAcc4 calls of the largest
// product (60 accumulations, inside MaxVecMulAcc) on top of the largest
// element must not overflow a limb, in any body.
func TestVecMulAccWorstCase(t *testing.T) {
	const n, calls = 33, 15
	max := Elem(Modulus - 1)
	row := make([]Elem, n)
	for i := range row {
		row[i] = max
	}
	m := new(big.Int).SetUint64(uint64(max))
	wantWide := new(big.Int).Mul(m, m)
	wantWide.Mul(wantWide, big.NewInt(4*calls)).Add(wantWide, m)
	want := new(big.Int).Mod(wantWide, bigMod())
	forEachBody(t, func(t *testing.T, b body) {
		a := Accumulator{body: b}
		a.Grow(n)
		a.Load(row)
		for range calls {
			a.MulAcc4(max, max, max, max, row, row, row, row)
		}
		for k := range n {
			if w := exact(&a, k); w.Cmp(wantWide) != 0 {
				t.Fatalf("entry %d accumulated %v, want %v", k, w, wantWide)
			}
		}
		got := make([]Elem, n)
		a.Reduce(got)
		for k := range got {
			if uint64(got[k]) != want.Uint64() {
				t.Fatalf("entry %d reduced to %d, want %v", k, got[k], want)
			}
		}
	})
}

// TestVecMulAcc4MatchesSingle holds one MulAcc4 call to math/big: the
// accumulator must hold base + Σ a_i·b_i[k] exactly, not just mod q.
func TestVecMulAcc4MatchesSingle(t *testing.T) {
	forEachBody(t, func(t *testing.T, b body) {
		rng := rand.New(rand.NewSource(2))
		c := accCase{base: randElems(rng, 53), mults: [][4]Elem{[4]Elem(randElems(rng, 4))}}
		c.srcs = [][4][]Elem{{randElems(rng, 53), randElems(rng, 53), randElems(rng, 53), randElems(rng, 53)}}
		c.run(t, b, 0)
	})
}

// pairBody is a body of MulAcc4 over (hi, lo) pairs.
type pairBody struct {
	name string
	fn   func(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)
}

// pairBodies are the (hi, lo) bodies to compare word for word: the MULQ
// assembly when this build has it (else the Go loop stands in) and the Go
// loop.
func pairBodies() [2]pairBody {
	asm := pairBody{"mulq", mulAcc4MULQ}
	if unavailable(bodyMULQ) != "" {
		asm = pairBody{"generic", mulAcc4Generic}
	}
	return [2]pairBody{asm, {"generic", mulAcc4Generic}}
}

// checkVecMulAcc4 runs the MULQ body and the Go body on the same
// accumulator words laid out at an odd offset inside longer buffers, and
// fails unless both leave identical words and neither touches a word past
// the first n.
func checkVecMulAcc4(t *testing.T, off int, hi0, lo0 []uint64, a [4]Elem, b [4][]Elem) {
	t.Helper()
	n := len(b[0])
	var out [2][2][]uint64
	for i, body := range pairBodies() {
		for w, init := range [][]uint64{hi0, lo0} {
			buf := make([]uint64, off+n+guards)
			for j := range buf {
				buf[j] = guard
			}
			copy(buf[off:], init)
			out[i][w] = buf
		}
		hi, lo := out[i][0][off:off+n], out[i][1][off:off+n]
		body.fn(hi, lo, a[0], a[1], a[2], a[3], b[0], b[1][:n], b[2][:n], b[3][:n])
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

// TestVecMulAcc4MatchesGeneric compares the MULQ body with the portable Go
// loop on arbitrary (hi, lo) words — the representation they share — over
// the lengths around the unroll and the panel width, a 512-system trailing
// row and a full row, for operands 0, 1, q−1, random and a mix, with
// b_1..b_3 longer than b_0 and every slice at an odd offset.
func TestVecMulAcc4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 31, 32, 33, 481, 513} {
		for _, c := range operandClasses(rng) {
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

// FuzzVecMulAcc4 holds the MULQ body to the Go loop on arbitrary operands,
// accumulator words, lengths and offsets.
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

// benchAccumulator returns an Accumulator of body bd loaded with a trailing
// row of the paper's N = 512 system (481 columns right of the first panel),
// 32 sources of that width and their multipliers.
func benchAccumulator(b *testing.B, bd body) (a *Accumulator, row []Elem, srcs [32][]Elem, m []Elem) {
	const width = 481
	if why := unavailable(bd); why != "" {
		b.Skipf("no %s body: %s", bd, why)
	}
	rng := rand.New(rand.NewSource(4))
	for i := range srcs {
		srcs[i] = randElems(rng, width)
	}
	a = &Accumulator{body: bd}
	a.Grow(width)
	row = randElems(rng, width)
	a.Load(row)
	return a, row, srcs, randElems(rng, len(srcs))
}

// BenchmarkMulAcc4 times MulAcc4 alone in every body this CPU runs and
// reports ns per multiply-accumulate.
func BenchmarkMulAcc4(b *testing.B) {
	for _, bd := range testBodies {
		b.Run(bd.String(), func(b *testing.B) {
			a, row, s, m := benchAccumulator(b, bd)
			b.ResetTimer()
			for range b.N {
				a.MulAcc4(m[0], m[1], m[2], m[3], s[0], s[1], s[2], s[3])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*len(row)), "ns/mac")
		})
	}
}

// BenchmarkAccumulateRow times what one row of a 32-pivot panel's trailing
// update costs — Load, eight MulAcc4 and Reduce — in every body this CPU
// runs, and reports ns per multiply-accumulate, Load and Reduce included.
func BenchmarkAccumulateRow(b *testing.B) {
	for _, bd := range testBodies {
		b.Run(bd.String(), func(b *testing.B) {
			a, row, s, m := benchAccumulator(b, bd)
			b.ResetTimer()
			for range b.N {
				a.Load(row)
				for j := 0; j < len(s); j += 4 {
					a.MulAcc4(m[j], m[j+1], m[j+2], m[j+3], s[j], s[j+1], s[j+2], s[j+3])
				}
				a.Reduce(row)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)*len(row)), "ns/mac")
		})
	}
}
