//go:build !purego

package core

import (
	"math/bits"

	"ppcd/internal/ff64"
)

// oneBlockCSS is the largest row width m whose message css‖z — 8m+NonceSize
// bytes — still leaves room in one 64-byte SHA-256 block for the 0x80 marker
// and the 8-byte bit length.
const oneBlockCSS = (64 - 1 - 8 - NonceSize) / 8

var hasSHANI = cpuHasSHANI()

// rowBlock describes, for the kernel, the single padded SHA-256 block of one
// CSS row. Both arrays are indexed by 8-byte half-quad of the block and hold
// bytes in the order the kernel's registers want them: each 32-bit message
// word big-endian-decoded, words in ascending order — which on little-endian
// amd64 makes a half-quad one uint64 with its earlier word in the low bits.
//
// tmpl is the block with the nonce's 16 bytes left zero. shuf holds the
// PSHUFB controls that move a nonce's bytes into that hole (it is 8-byte
// aligned, so it covers exactly two half-quads) and zero everything else;
// the hole ends by byte 48, so quad 3 needs no control.
type rowBlock struct {
	tmpl [8]uint64
	shuf [6]uint64
}

func cpuHasSHANI() bool

//go:noescape
func hashRowsSHANI(dst *ff64.Elem, zs *[]byte, n int, blk *rowBlock)

// hashRowsOneBlock is the kernel path of HashRows: it applies when the CPU
// has the SHA extensions, the row fits one block and every nonce has the
// standard length, and reports whether it filled dst. Nonce lengths come off
// the wire on the subscriber side, so they are checked here, before the
// kernel reads 16 bytes from each.
//
//ppcd:hotpath
func hashRowsOneBlock(dst []ff64.Elem, css []CSS, zs [][]byte) bool {
	m := len(css)
	if !hasSHANI || m > oneBlockCSS {
		return false
	}
	for _, z := range zs {
		if len(z) != NonceSize {
			return false
		}
	}
	var blk rowBlock
	for i, r := range css {
		blk.tmpl[i] = bits.RotateLeft64(uint64(r), 32) // r.Bytes() as two words
	}
	blk.tmpl[m+2] = 0x80 << 24 // first byte after the nonce
	blk.tmpl[7] = uint64(8*(8*m+NonceSize)) << 32
	for i := range blk.shuf {
		blk.shuf[i] = 0x8080808080808080 // PSHUFB: high bit set = zero byte
	}
	blk.shuf[m], blk.shuf[m+1] = 0x0405060700010203, 0x0c0d0e0f08090a0b
	hashRowsSHANI(&dst[0], &zs[0], len(zs), &blk)
	for j, a := range dst {
		dst[j] = ff64.New(uint64(a))
	}
	return true
}
