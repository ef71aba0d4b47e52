package ff64

import "math/bits"

// MaxVecMulAcc bounds the number of sources an Accumulator absorbs between
// Load and Reduce, whichever body runs. It is the (hi, lo) bodies' limit: each
// product of reduced operands has a high limb below 2⁵⁸, so 63 accumulations
// (with their carries) stay below 2⁶⁴ in the high limb. The IFMA body's own
// limit is far higher (its middle limb takes three terms below 2⁵² per
// source, ≈ 1 365 sources), so one budget serves every body; callers batching
// more must reduce in between.
const MaxVecMulAcc = 63

// body names one implementation of the Accumulator. The zero value stands
// for the body this build and CPU run best, chosen once at start-up.
type body uint8

const (
	bodyAuto    body = iota
	bodyGeneric      // Go: (hi, lo) pairs through bits.Mul64
	bodyMULQ         // amd64 assembly: (hi, lo) pairs through MULQ
	bodyIFMA         // AVX-512 IFMA assembly: three 52-bit-weighted limbs
)

// limbs is how many words per element the body's representation takes.
func (b body) limbs() int {
	if b == bodyIFMA {
		return 3
	}
	return 2
}

// selected is the body a zero-value Accumulator takes: IFMA when the CPU and
// the OS support AVX-512 with IFMA, else MULQ on amd64, else Go. Only CPUID,
// GOARCH and the purego build tag decide it.
var selected = selectBody()

// Accumulator is the delayed-reduction row of blocked elimination (package
// linalg): a row is loaded once, takes up to MaxVecMulAcc rank-1
// contributions a_i·b_i[k] without a modular reduction, and is reduced once.
// Its representation is private to the body that runs it:
//
//   - the Go and MULQ bodies keep each element as a 128-bit (hi, lo) pair and
//     add a 64×64-bit product per source;
//   - the IFMA body keeps three 64-bit limbs of weights 2⁰, 2⁵² and 2¹⁰⁴ and
//     adds each product as the 52-bit halves VPMADD52{L,H}UQ return, eight
//     elements per instruction.
//
// Every sum is exact, so every body reduces to the same field elements. An
// Accumulator is owned by one goroutine; the zero value is ready for Grow.
type Accumulator struct {
	body body
	// l[0] and l[1] are lo and hi for the pair bodies; IFMA uses all three
	// as its limbs, lowest weight first. Each holds the capacity.
	l [3][]uint64
}

// Grow makes room for rows of up to n elements. It allocates only when the
// capacity is below n.
func (a *Accumulator) Grow(n int) {
	if a.body == bodyAuto {
		a.body = selected
	}
	if len(a.l[0]) >= n {
		return
	}
	w := make([]uint64, a.body.limbs()*n)
	for i := range a.body.limbs() {
		a.l[i] = w[i*n : (i+1)*n : (i+1)*n]
	}
}

// Load seeds the accumulator with v, ahead of a MulAcc4 batch over the same
// width.
func (a *Accumulator) Load(v []Elem) {
	n := len(v)
	if a.body == bodyIFMA {
		loadIFMA(a.l[0][:n], a.l[1][:n], a.l[2][:n], v)
		return
	}
	lo, hi := a.l[0][:n], a.l[1][:n]
	for k, e := range v {
		lo[k], hi[k] = uint64(e), 0
	}
}

// MulAcc4 adds a_i·b_i[k] for the four sources to every element k <
// len(b0), without reducing. Each accumulator element is read and written
// once per four sources; a caller with fewer than four passes zero
// multipliers, which add nothing. It counts as four sources against
// MaxVecMulAcc. b1..b3 must be at least as long as b0.
func (a *Accumulator) MulAcc4(a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	n := len(b0)
	b1, b2, b3 = b1[:n], b2[:n], b3[:n]
	switch a.body {
	case bodyIFMA:
		mulAcc4IFMA(a.l[0][:n], a.l[1][:n], a.l[2][:n], a0, a1, a2, a3, b0, b1, b2, b3)
	case bodyMULQ:
		mulAcc4MULQ(a.l[1][:n], a.l[0][:n], a0, a1, a2, a3, b0, b1, b2, b3)
	default:
		mulAcc4Generic(a.l[1][:n], a.l[0][:n], a0, a1, a2, a3, b0, b1, b2, b3)
	}
}

// Reduce writes the first len(out) accumulated elements back as canonical
// field elements: out[k] = value mod q over the full range MaxVecMulAcc
// sources can reach.
func (a *Accumulator) Reduce(out []Elem) {
	n := len(out)
	if a.body == bodyIFMA {
		reduceIFMA(out, a.l[0][:n], a.l[1][:n], a.l[2][:n])
		return
	}
	lo, hi := a.l[0][:n], a.l[1][:n]
	for k := range out {
		out[k] = Reduce128Wide(hi[k], lo[k])
	}
}

// mulAcc4Generic is the Go body of MulAcc4, compiled on every build so tests
// can hold the assembly to it. Its slices obey MulAcc4's length rule;
// reslicing them to len(b0) lets the compiler drop the bounds checks in the
// loop.
func mulAcc4Generic(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	n := len(b0)
	v0, v1, v2, v3 := uint64(a0), uint64(a1), uint64(a2), uint64(a3)
	b1, b2, b3 = b1[:n], b2[:n], b3[:n]
	hi, lo = hi[:n], lo[:n]
	for k, bv := range b0 {
		lk, hk := lo[k], hi[k]
		var c uint64
		h, l := bits.Mul64(v0, uint64(bv))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		h, l = bits.Mul64(v1, uint64(b1[k]))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		h, l = bits.Mul64(v2, uint64(b2[k]))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		h, l = bits.Mul64(v3, uint64(b3[k]))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		lo[k], hi[k] = lk, hk
	}
}
