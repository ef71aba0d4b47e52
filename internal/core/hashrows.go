package core

import (
	"crypto/sha256"
	"encoding/binary"

	"ppcd/internal/ff64"
)

// HashRows computes one row of the matrix A without its leading 1:
// dst[j] = H(css ‖ zs[j]) = HashRow(css, zs[j]) for every nonce. It is the
// only producer of matrix entries — the publisher's builds and the
// subscriber's KEV both call it — so the two sides cannot compute different
// hashes. len(dst) must be at least len(zs).
//
// On amd64 with the SHA extensions (and without the purego build tag), a row
// of at most four CSSs against NonceSize nonces is one pre-padded SHA-256
// block per entry, and an assembly kernel hashes those two nonces at a time.
// Everything else — other platforms, wider rows, and any nonce of another
// length, which a decoded header may carry — streams through crypto/sha256.
//
//ppcd:hotpath
func HashRows(dst []ff64.Elem, css []CSS, zs [][]byte) {
	dst = dst[:len(zs)]
	if len(zs) == 0 {
		return
	}
	if !hashRowsOneBlock(dst, css, zs) {
		hashRowsStream(dst, css, zs)
	}
}

func hashRowsStream(dst []ff64.Elem, css []CSS, zs [][]byte) {
	prefix := make([]byte, 0, 8*len(css))
	for _, r := range css {
		prefix = binary.BigEndian.AppendUint64(prefix, uint64(r))
	}
	h := sha256.New()
	var sum [sha256.Size]byte
	for j, z := range zs {
		h.Reset()
		h.Write(prefix)
		h.Write(z)
		dst[j] = ff64.New(binary.BigEndian.Uint64(h.Sum(sum[:0])))
	}
}

// RowHasher hashes one CSS row against one nonce at a time: HashRows for a
// caller that has no slice of nonces (the benchmark's per-call probe).
type RowHasher struct {
	css []CSS
}

// NewRowHasher returns a hasher for the row; css must not change while it is
// in use.
func NewRowHasher(css []CSS) *RowHasher { return &RowHasher{css: css} }

// Hash returns H(css ‖ z) reduced into F_q.
func (rh *RowHasher) Hash(z []byte) ff64.Elem {
	var out [1]ff64.Elem
	zs := [1][]byte{z}
	HashRows(out[:], rh.css, zs[:])
	return out[0]
}
