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
//
// The nonces of a session are the expansion of a 32-byte seed (ExpandNonces),
// and the seed is what is kept: a Header at rest — solved by the Engine,
// decoded from a frame or a state segment, cached, diffed, relayed — is X and
// the seed. The 16N bytes of nonces are scratch: the publisher expands a
// session's seed once into the run its solves share, KEV expands into a
// pooled buffer for the time it hashes a row, and neither result outlives
// the call. Build, BuildMulti and BuildGrouped, the literal §V-C leaf the
// figures and the benchmark call, still list the nonces in Header.Zs.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
)

// NonceSize is the byte length τ/8 of each z_j. The paper requires
// τ·N > 160 to keep nonce sequences distinct across sessions; the sequences
// the engine draws are expansions of a SeedSize seed, which carries that
// requirement at every N ≥ 1.
const NonceSize = 16

// SeedSize is the byte length of the seed that names a nonce run: a rekey
// session draws one seed from crypto/rand and its nonces are ExpandNonces of
// it, so a header ships, persists and caches as X plus 32 bytes.
//
// Nonces are public in §V-C — Pub chooses them and broadcasts them — so
// deriving them from a public seed gives nothing away. What the
// random-oracle argument of §VI-B needs is distinct (r, z) inputs: AES under
// one key is a permutation, so the z_j of one run are distinct, and two
// sessions draw the same seed with probability ≈ sessions²/2²⁵⁷. A hostile
// sender gains nothing either: it could already choose any nonces.
const SeedSize = 32

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
//
// At rest a header is X and a seed. Seed, when it holds SeedSize bytes,
// names the run the nonces come from — the first N of ExpandNonces(Seed, ·),
// N = |X| − 1 — and that is all of them the header keeps: what the engine
// solves, what a stream frame or a state segment decodes to and what the
// caches hold is X plus 32 bytes, the shards of one session sharing the seed
// and differing in N. The nonces exist only while a row is hashed against
// them: the publisher expands a session's seed once into the run its solves
// share, KEV expands into pooled scratch, and nothing stores the result.
//
// Zs is the listed form, for nonces no seed names: headers decoded from a
// frame run written out, and those built by hand. Build, BuildMulti and BuildGrouped — the literal §V-C leaf — list
// the nonces beside the seed, because their callers index them. A header is
// not written after it is built: it is shared between caches, broadcasts and
// goroutines, which is also why it memoises no expansion.
type Header struct {
	X    linalg.Vector
	Zs   [][]byte
	Seed []byte
}

// N returns the maximum-user parameter the header was built for.
func (h *Header) N() int { return max(len(h.X)-1, 0) }

// Seeded reports whether the header names its nonce run by a seed.
func (h *Header) Seeded() bool { return len(h.Seed) == SeedSize }

// Nonces returns z_1…z_N: the nonces the header lists, else the expansion of
// its seed, freshly allocated (KEV expands into scratch instead). It is the
// one reader of Zs; a header that lists the wrong number of nonces for its X
// gets them back as listed, and KEV refuses it.
func (h *Header) Nonces() [][]byte { return h.nonces(new(nonceScratch)) }

func (h *Header) nonces(sc *nonceScratch) [][]byte {
	if len(h.Zs) > 0 || !h.Seeded() {
		return h.Zs
	}
	return sc.expand(h.Seed, h.N())
}

// Size returns the broadcast overhead of the header in bytes as built: the
// serialized X entries plus the nonces, listed or named by the seed. This is
// the quantity plotted in Fig. 5 of the paper.
func (h *Header) Size() int {
	n := 8 * len(h.X)
	if len(h.Zs) == 0 && h.Seeded() {
		return n + NonceSize*h.N()
	}
	for _, z := range h.Zs {
		n += len(z)
	}
	return n
}

// runEntrySize is what a stream frame's run table spends on one seeded run:
// its length, the seeded marker and the seed.
const runEntrySize = 8 + SeedSize

// WireSize returns Fig. 5 as shipped: what a stream frame spends on the
// header when it shares its nonce run with nobody — X, the reference to its
// run, and the run's table entry, which is the seed for a seeded header and
// the nonces themselves for any other.
func (h *Header) WireSize() int {
	if h.Seeded() {
		return 8*len(h.X) + 4 + runEntrySize
	}
	return h.Size() + 4 + 8
}

// sameSolve reports whether two headers hold one solve: they are one object,
// or seeded with the same X over the same seed (a solve draws a fresh seed
// and key).
func (h *Header) sameSolve(o *Header) bool {
	return h == o || (o != nil && h.Seeded() && bytes.Equal(h.Seed, o.Seed) && slices.Equal(h.X, o.X))
}

// Clone returns a deep copy of the header: X, the seed, and the nonces it
// lists, laid out as a run — one flat buffer of capped windows.
func (h *Header) Clone() *Header {
	out := &Header{X: h.X.Clone(), Seed: bytes.Clone(h.Seed)}
	if h.Zs == nil {
		return out
	}
	out.Zs = make([][]byte, len(h.Zs))
	buf := make([]byte, 0, h.Size()-8*len(h.X))
	for i, z := range h.Zs {
		buf = append(buf, z...)
		out.Zs[i] = buf[len(buf)-len(z) : len(buf) : len(buf)]
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
// whose CSSs for the chosen policy are css, against the header's nonces. A
// seeded header's nonces are expanded into pooled scratch for the hashing and
// dropped with it, so a caller that caches the vector (§VIII-D) pays the
// expansion only on a miss.
func KEV(css []CSS, hdr *Header) (linalg.Vector, error) {
	if len(css) == 0 {
		return nil, ErrEmptyCSS
	}
	sc := nonceScratchPool.Get().(*nonceScratch)
	defer nonceScratchPool.Put(sc)
	zs := hdr.nonces(sc)
	if len(hdr.X) != len(zs)+1 {
		return nil, fmt.Errorf("%w: |X|=%d, N=%d", ErrBadHeader, len(hdr.X), len(zs))
	}
	v := linalg.NewVector(len(zs) + 1)
	v[0] = ff64.One
	HashRows(v[1:], css, zs)
	return v, nil
}

// Build generates a fresh key K and the public header for one policy
// configuration. rows holds, for each qualified subscriber×policy pair, the
// ordered CSS list for that policy's conditions. n is the maximum-user
// parameter N and must satisfy n ≥ len(rows) (paper eq. (1)). It is
// BuildMulti for one document: A is solved by the engine's blocked
// elimination, not the reference Gauss–Jordan.
func Build(rows [][]CSS, n int) (*Header, ff64.Elem, error) {
	hdrs, keys, err := BuildMulti(rows, n, 1)
	if err != nil {
		return nil, 0, err
	}
	return hdrs[0], keys[0], nil
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
