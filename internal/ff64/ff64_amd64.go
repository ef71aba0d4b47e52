//go:build !purego

package ff64

// selectBody picks IFMA when cpuHasIFMA reports it, else the baseline
// x86-64 MULQ body.
func selectBody() body {
	if cpuHasIFMA() {
		return bodyIFMA
	}
	return bodyMULQ
}

// cpuHasIFMA reports AVX-512F and AVX512_IFMA (leaf 7, EBX bits 16 and 21)
// and that the OS saves the opmask and ZMM state (XCR0 bits 1, 2, 5, 6 and
// 7). Every instruction of the IFMA body is AVX-512F or AVX512_IFMA, bar
// VZEROUPPER, which AVX-512F implies.
func cpuHasIFMA() bool

// mulAcc4MULQ is the MULQ body of Accumulator.MulAcc4 (ff64_amd64.s). Every
// slice is len(b0) long.
//
//go:noescape
func mulAcc4MULQ(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)

// mulAcc4IFMA is the IFMA body of Accumulator.MulAcc4 (ff64_amd64.s). Every
// slice is len(b0) long.
//
//go:noescape
func mulAcc4IFMA(l0, l1, l2 []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)

// loadIFMA is the IFMA body of Accumulator.Load: l0 = v, l1 = l2 = 0. Every
// slice is len(v) long.
//
//go:noescape
func loadIFMA(l0, l1, l2 []uint64, v []Elem)

// reduceIFMA is the IFMA body of Accumulator.Reduce. Every slice is len(out)
// long.
//
//go:noescape
func reduceIFMA(out []Elem, l0, l1, l2 []uint64)
