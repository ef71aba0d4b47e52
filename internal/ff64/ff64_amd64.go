//go:build !purego

package ff64

// vecMulAcc4 is the body of VecMulAcc4 (ff64_amd64.s). Every slice is
// len(b0) long.
//
//go:noescape
func vecMulAcc4(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem)
