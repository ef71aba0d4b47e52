//go:build !amd64 || purego

package ff64

// vecMulAcc4 is the body of VecMulAcc4; this build has no assembly for it.
func vecMulAcc4(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	vecMulAcc4Generic(hi, lo, a0, a1, a2, a3, b0, b1, b2, b3)
}
