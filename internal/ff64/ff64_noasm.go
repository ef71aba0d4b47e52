//go:build !amd64 || purego

package ff64

// This build has no assembly: every Accumulator runs the Go body, and the
// assembly entry points below are never selected.

func selectBody() body { return bodyGeneric }

func cpuHasIFMA() bool { return false }

func mulAcc4MULQ(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	panic("ff64: no MULQ body in this build")
}

func mulAcc4IFMA(l0, l1, l2 []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	panic("ff64: no IFMA body in this build")
}

func loadIFMA(l0, l1, l2 []uint64, v []Elem) { panic("ff64: no IFMA body in this build") }

func reduceIFMA(out []Elem, l0, l1, l2 []uint64) { panic("ff64: no IFMA body in this build") }
