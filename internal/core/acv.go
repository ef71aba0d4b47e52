// Package core implements the paper's primary contribution: the access
// control vector (ACV) group key management scheme of §V-C.
//
// For one policy configuration the publisher holds, for every subscriber i
// that may satisfy policy k, the ordered list of conditional subscription
// secrets (CSSs) r_{i,1}, …, r_{i,m_k} the subscriber received for that
// policy's conditions. The publisher
//
//  1. picks N ≥ (total number of subscriber×policy rows) and N fresh nonces
//     z_1 … z_N,
//  2. forms the matrix A with rows (1, a_1, …, a_N) where
//     a_j = H(r_1 ‖ … ‖ r_m ‖ z_j),
//  3. solves A·Y = 0 for a random non-trivial access control vector Y, and
//  4. broadcasts X = (K, 0, …, 0)ᵀ + Y along with z_1 … z_N.
//
// A qualified subscriber recomputes its row ν (a key extraction vector, KEV)
// and recovers K = ν·X, because ν·Y = 0 and the first entry of ν is 1.
// Rekeying is just a re-run with a fresh key and fresh nonces: no message is
// sent to any individual subscriber.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
)

// NonceSize is the byte length τ/8 of each z_j. The paper requires
// τ·N > 160 to keep nonce sequences distinct across sessions; a 16-byte
// nonce satisfies this for every N ≥ 1.
const NonceSize = 16

// CSS is a conditional subscription secret: a random element of the GKM
// field F_q delivered obliviously to a subscriber for one attribute
// condition.
type CSS = ff64.Elem

// NewCSS draws a fresh conditional subscription secret.
func NewCSS() (CSS, error) { return ff64.RandNonZero() }

// CSSFromBytes decodes a CSS from its canonical 8-byte encoding (the payload
// of a registration envelope).
func CSSFromBytes(b []byte) (CSS, error) { return ff64.FromBytes(b) }

// Header is the public rekey material broadcast with an encrypted
// subdocument: the masked vector X (length N+1) and the nonces z_1…z_N.
// Publishing it reveals nothing about the key K (key indistinguishability,
// §VI-B2).
type Header struct {
	X  linalg.Vector
	Zs [][]byte
}

// N returns the maximum-user parameter the header was built for.
func (h *Header) N() int { return len(h.Zs) }

// Size returns the broadcast overhead of the header in bytes: the
// serialized X entries plus the nonces. This is the quantity plotted in
// Fig. 5 of the paper.
func (h *Header) Size() int {
	return 8*len(h.X) + NonceSize*len(h.Zs)
}

// Clone returns a deep copy of the header.
func (h *Header) Clone() *Header {
	out := &Header{X: h.X.Clone(), Zs: make([][]byte, len(h.Zs))}
	for i, z := range h.Zs {
		out.Zs[i] = append([]byte(nil), z...)
	}
	return out
}

// Errors returned by Build and DeriveKey.
var (
	ErrNoRows     = errors.New("core: no subscriber rows; encrypt without a header instead")
	ErrNTooSmall  = errors.New("core: N must be at least the number of subscriber rows")
	ErrEmptyCSS   = errors.New("core: a subscriber row must contain at least one CSS")
	ErrBadHeader  = errors.New("core: malformed header")
	ErrBadKey     = errors.New("core: derived key is zero; subscriber is not authorized or header is stale")
	errDegenerate = errors.New("core: degenerate X (first entry followed by zeros); retry")
)

// HashRow computes a_j = H(r_1 ‖ r_2 ‖ … ‖ r_m ‖ z) mapped into F_q. The
// hash H is SHA-256 modelled as a random oracle (paper §VI-B); the first 8
// bytes of the digest are reduced into the field. This is the definition of
// H and the reference the tests hold HashRows to; code that fills matrix
// entries calls HashRows.
func HashRow(css []CSS, z []byte) ff64.Elem {
	h := sha256.New()
	for _, r := range css {
		h.Write(r.Bytes())
	}
	h.Write(z)
	digest := h.Sum(nil)
	return ff64.New(binary.BigEndian.Uint64(digest[:8]))
}

// KEV computes the key extraction vector (1, a_1, …, a_N) for a subscriber
// whose CSSs for the chosen policy are css, against the nonces in hdr.
func KEV(css []CSS, hdr *Header) (linalg.Vector, error) {
	if len(css) == 0 {
		return nil, ErrEmptyCSS
	}
	if len(hdr.X) != len(hdr.Zs)+1 {
		return nil, fmt.Errorf("%w: |X|=%d, N=%d", ErrBadHeader, len(hdr.X), len(hdr.Zs))
	}
	v := linalg.NewVector(len(hdr.Zs) + 1)
	v[0] = ff64.One
	HashRows(v[1:], css, hdr.Zs)
	return v, nil
}

// Build generates a fresh key K and the public header for one policy
// configuration. rows holds, for each qualified subscriber×policy pair, the
// ordered CSS list for that policy's conditions. n is the maximum-user
// parameter N and must satisfy n ≥ len(rows) (paper eq. (1)).
func Build(rows [][]CSS, n int) (*Header, ff64.Elem, error) {
	if len(rows) == 0 {
		return nil, 0, ErrNoRows
	}
	if n < len(rows) {
		return nil, 0, fmt.Errorf("%w: N=%d < %d rows", ErrNTooSmall, n, len(rows))
	}
	key, err := ff64.RandNonZero()
	if err != nil {
		return nil, 0, err
	}
	hdr, err := buildWithKey(rows, n, key)
	if err != nil {
		return nil, 0, err
	}
	return hdr, key, nil
}

func tailZero(x linalg.Vector) bool {
	for _, e := range x[1:] {
		if e != ff64.Zero {
			return false
		}
	}
	return true
}

// DeriveKey recovers the configuration key from the broadcast header using
// the subscriber's CSS list for one satisfied policy. If the subscriber is
// not qualified the result is an unpredictable field element (with
// negligible probability of equalling the real key); callers detect failure
// through authenticated decryption of the payload.
func DeriveKey(css []CSS, hdr *Header) (ff64.Elem, error) {
	kev, err := KEV(css, hdr)
	if err != nil {
		return 0, err
	}
	k, err := kev.Dot(hdr.X)
	if err != nil {
		return 0, err
	}
	return k, nil
}

// ExpandKey expands a GKM field key into a 32-byte symmetric key for
// AES-256-GCM. The expansion honours the paper's observation (§VIII-D) that
// the scheme supports keys longer than one hash output.
func ExpandKey(k ff64.Elem) [32]byte {
	h := sha256.New()
	h.Write([]byte("ppcd/acv-key-expand/v1"))
	h.Write(k.Bytes())
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
