package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
)

// BuildMulti generates `count` independent keys and headers that SHARE the
// nonces z_1…z_N, for broadcasting several documents to the same policy
// configuration (same subscriber rows) in one session. This is the
// optimisation of §VIII-D: the publisher computes the matrix A and its null
// space once, then picks `count` independent random ACVs from it; a
// subscriber hashes its CSSs against the shared nonces once and reuses the
// cached KEV for every document. Unlike the marker scheme, compromise of one
// key reveals nothing about the others (the ACVs are independent kernel
// samples).
func BuildMulti(rows [][]CSS, n, count int) ([]*Header, []ff64.Elem, error) {
	if count < 1 {
		return nil, nil, fmt.Errorf("core: count must be positive, got %d", count)
	}
	if len(rows) == 0 {
		return nil, nil, ErrNoRows
	}
	if n < len(rows) {
		return nil, nil, fmt.Errorf("%w: N=%d < %d rows", ErrNTooSmall, n, len(rows))
	}
	for _, r := range rows {
		if len(r) == 0 {
			return nil, nil, ErrEmptyCSS
		}
	}

	run, a, err := buildMatrix(rows, n)
	if err != nil {
		return nil, nil, err
	}

	// Factorize A once (blocked elimination) and draw every document's ACV
	// from the same echelon form: count in-place kernel samples instead of
	// count full Gauss–Jordan reductions over cloned matrices.
	ws := linalg.NewWorkspace()
	sampler, err := ws.Factorize(a)
	if err != nil {
		return nil, nil, fmt.Errorf("core: solving AY=0: %w", err)
	}

	headers := make([]*Header, 0, count)
	keys := make([]ff64.Elem, 0, count)
	for i := 0; i < count; i++ {
		var hdr *Header
		var key ff64.Elem
		x := linalg.NewVector(a.Cols)
		for attempt := 0; attempt < 8; attempt++ {
			// Every entry of x is overwritten per attempt, so the retry loop
			// reuses the one buffer the header will own.
			if err := sampler.SampleInPlace(x); err != nil {
				return nil, nil, fmt.Errorf("core: sampling ACV %d: %w", i, err)
			}
			k, err := ff64.RandNonZero()
			if err != nil {
				return nil, nil, err
			}
			x[0] = ff64.Add(x[0], k)
			if tailZero(x) {
				continue
			}
			hdr = run.listed(x, n)
			key = k
			break
		}
		if hdr == nil {
			return nil, nil, errDegenerate
		}
		headers = append(headers, hdr)
		keys = append(keys, key)
	}
	return headers, keys, nil
}

// buildMatrix draws the nonces and assembles the subscriber matrix A.
func buildMatrix(rows [][]CSS, n int) (nonceRun, *linalg.Matrix, error) {
	run, err := drawNonces(n)
	if err != nil {
		return run, nil, err
	}
	a := linalg.NewMatrix(len(rows), n+1)
	for i, css := range rows {
		row := a.Row(i)
		row[0] = ff64.One
		HashRows(row[1:], css, run.zs)
	}
	return run, a, nil
}

// nonceRun is one rekey session's nonces: the seed drawn for the session and
// its expansion, as long as the session's largest system. The session's
// solves read the expansion and it goes when they are done; the headers keep
// the seed.
type nonceRun struct {
	seed []byte
	zs   [][]byte
}

// header returns the header of a system of capacity len(x) − 1 solved over
// the run, as it rests: X and the seed that names its nonces.
func (r nonceRun) header(x linalg.Vector) *Header {
	return &Header{X: x, Seed: r.seed}
}

// listed is header with the first n nonces listed beside the seed: what
// Build, BuildMulti and BuildGrouped return.
func (r nonceRun) listed(x linalg.Vector, n int) *Header {
	return &Header{X: x, Zs: r.zs[:n:n], Seed: r.seed}
}

// drawNonces draws a session's seed from the system's random source and
// expands it to n nonces.
func drawNonces(n int) (nonceRun, error) {
	seed := make([]byte, SeedSize)
	if err := fillRandom(seed); err != nil {
		return nonceRun{}, err
	}
	return nonceRun{seed: seed, zs: ExpandNonces(seed, n)}, nil
}

// ExpandNonces returns the first n nonces of the run a seed names:
// z_j = AES-256_seed(BE128(j)) for j = 0…n−1, which is the CTR keystream
// under a zero IV. They are written into one freshly allocated flat buffer
// windowed by NonceRun, so they sit contiguously in memory for the row-hash
// kernel, and ExpandNonces(seed, k) is the front of ExpandNonces(seed, n) for
// k ≤ n. The seed must hold SeedSize bytes. It is what a rekey session calls
// once for the run its solves share; a header's reader goes through
// Header.Nonces or KEV.
func ExpandNonces(seed []byte, n int) [][]byte {
	if len(seed) != SeedSize {
		panic(fmt.Sprintf("core: nonce seed of %d bytes, want %d", len(seed), SeedSize))
	}
	return new(nonceScratch).expand(seed, n)
}

// nonceScratch is where a seed's nonces live while rows are hashed against
// them: a flat buffer and its windows, cut again only when a longer run is
// asked for, so a scan over the shards of a broadcast expands every seed into
// the same few kilobytes.
type nonceScratch struct {
	buf []byte
	zs  [][]byte
}

var nonceScratchPool = sync.Pool{New: func() any { return new(nonceScratch) }}

// expansions counts seeds expanded (NonceExpansions).
var expansions atomic.Uint64

// NonceExpansions returns how many nonce seeds this process has expanded.
// Tests pin with it where the expansion is paid: once per rekey session at
// the publisher, once per KEV-cache miss at a subscriber, never by a relay,
// a decoder, a diff or a marshal.
func NonceExpansions() uint64 { return expansions.Load() }

// expand overwrites the scratch with the first n nonces of the run a
// SeedSize seed names and returns them; they are valid until the next expand.
//
//ppcd:hotpath
func (sc *nonceScratch) expand(seed []byte, n int) [][]byte {
	if n == 0 {
		return nil
	}
	block, err := aes.NewCipher(seed)
	if err != nil {
		panic(err) // not an AES key size: callers pass SeedSize bytes
	}
	if n > len(sc.zs) {
		sc.buf = make([]byte, n*NonceSize)
		sc.zs = NonceRun(sc.buf, n, NonceSize)
	}
	buf := sc.buf[:n*NonceSize]
	clear(buf)
	var iv [aes.BlockSize]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(buf, buf)
	expansions.Add(1)
	return sc.zs[:n:n]
}

// NonceRun views a flat buffer of n nonces of size bytes each as a nonce
// run: zs[j] is a window of buf capped at its own bytes, so an append to one
// nonce cannot reach the next. It is the layout of every expansion and of a
// run a stream frame wrote out, whose headers each list a prefix zs[:k:k].
func NonceRun(buf []byte, n, size int) [][]byte {
	zs := make([][]byte, n)
	for j := range zs {
		zs[j] = buf[j*size : (j+1)*size : (j+1)*size]
	}
	return zs
}

// SameNonces reports whether two nonce sequences are equal by content.
// Sequences that are windows of one run (the same backing array from the
// same position) are recognised without looking at the nonces.
func SameNonces(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for j := range a {
		if !bytes.Equal(a[j], b[j]) {
			return false
		}
	}
	return true
}

// KEVCache caches a subscriber's key extraction vector for one nonce set so
// that derivations for multiple documents of a shared session cost one inner
// product each instead of N hashes + one inner product (§VIII-D: "the Sub
// can compute the hash values and cache the resultant vector for future
// use").
type KEVCache struct {
	kev linalg.Vector
}

// NewKEVCache hashes the subscriber's CSS list against a header's nonces
// once.
func NewKEVCache(css []CSS, hdr *Header) (*KEVCache, error) {
	kev, err := KEV(css, hdr)
	if err != nil {
		return nil, err
	}
	return &KEVCache{kev: kev}, nil
}

// Derive extracts the key from a header that shares the cache's nonce set.
func (c *KEVCache) Derive(hdr *Header) (ff64.Elem, error) {
	if len(hdr.X) != len(c.kev) {
		return 0, fmt.Errorf("%w: cached KEV length %d, X length %d", ErrBadHeader, len(c.kev), len(hdr.X))
	}
	return c.kev.Dot(hdr.X)
}

// GroupShard is one shard of a grouped header (§VIII-C): a small ACV
// sub-header delivering the shard's long-lived GROUP key, plus the wrap of
// the configuration key under it. The two-level indirection is what makes
// per-group incremental rekeying possible: a membership change re-solves
// only the affected shard's ACV (fresh group key), while every clean shard
// keeps its sub-header — and therefore its subscribers' cached KEVs — and
// merely receives a fresh wrap of the new configuration key.
type GroupShard struct {
	Hdr  *Header
	Wrap ff64.Elem
}

// GroupedHeader is the broadcast material of a grouped build: one sub-header
// per row shard, all delivering the same configuration key through per-shard
// wraps W_i = K + H(S_i ‖ RekeyNonce). RekeyNonce is fresh whenever K is, so
// reused group keys never reuse a mask.
type GroupedHeader struct {
	RekeyNonce []byte
	Shards     []GroupShard
}

// Size returns the total broadcast overhead across shards: sub-headers,
// wraps and the rekey nonce. This is the grouped counterpart of Header.Size.
func (g *GroupedHeader) Size() int {
	n := len(g.RekeyNonce)
	for _, sh := range g.Shards {
		n += sh.Hdr.Size() + 8
	}
	return n
}

// WireSize returns what a stream frame spends on the grouped header when it
// shares its runs with no other configuration: Size with every sub-header at
// its WireSize, the shards of one session paying for their run's entry once.
func (g *GroupedHeader) WireSize() int {
	n := len(g.RekeyNonce)
	seen := make(map[string]bool)
	for _, sh := range g.Shards {
		n += sh.Hdr.WireSize() + 8
		if sh.Hdr.Seeded() {
			if seen[string(sh.Hdr.Seed)] {
				n -= runEntrySize
			}
			seen[string(sh.Hdr.Seed)] = true
		}
	}
	return n
}

// maskShardKey derives the field mask hiding a configuration key from one
// shard's group key, in the same random-oracle style as HashRow.
func maskShardKey(s ff64.Elem, rekeyNonce []byte) ff64.Elem {
	h := sha256.New()
	h.Write([]byte("ppcd/group-wrap/v1"))
	h.Write(s.Bytes())
	h.Write(rekeyNonce)
	digest := h.Sum(nil)
	return ff64.New(binary.BigEndian.Uint64(digest[:8]))
}

// WrapKey masks the configuration key under a shard's group key.
func (g *GroupedHeader) WrapKey(key, shardKey ff64.Elem) ff64.Elem {
	return ff64.Add(key, maskShardKey(shardKey, g.RekeyNonce))
}

// Unwrap recovers the configuration key from shard i's group key.
func (g *GroupedHeader) Unwrap(i int, shardKey ff64.Elem) ff64.Elem {
	return ff64.Sub(g.Shards[i].Wrap, maskShardKey(shardKey, g.RekeyNonce))
}

// sameSolve reports whether two grouped headers hold one build: they are one
// object, or carry the same rekey nonce (a build draws a fresh one) over the
// same shard solves and wraps.
func (g *GroupedHeader) sameSolve(o *GroupedHeader) bool {
	if g == o {
		return true
	}
	if !bytes.Equal(g.RekeyNonce, o.RekeyNonce) || len(g.Shards) != len(o.Shards) {
		return false
	}
	for i, sh := range g.Shards {
		if sh.Wrap != o.Shards[i].Wrap || !sh.Hdr.sameSolve(o.Shards[i].Hdr) {
			return false
		}
	}
	return true
}

// BuildGrouped splits the subscriber rows into shards of at most groupSize
// and computes an independent small ACV per shard — the scalability strategy
// of §VIII-C: solving g small systems costs g·(N/g)³ = N³/g² field
// operations instead of N³, at the price of g sub-headers. Each shard's ACV
// delivers a random group key; the shared configuration key travels wrapped
// under every group key. A subscriber derives the key from its own shard's
// sub-header; since it does not know its shard index, DeriveKeyGrouped scans
// the shards (the pubsub layer remembers the index as a hint).
func BuildGrouped(rows [][]CSS, groupSize int) (*GroupedHeader, ff64.Elem, error) {
	if groupSize < 1 {
		return nil, 0, fmt.Errorf("core: groupSize must be positive, got %d", groupSize)
	}
	if len(rows) == 0 {
		return nil, 0, ErrNoRows
	}
	key, err := ff64.RandNonZero()
	if err != nil {
		return nil, 0, err
	}
	nonce := make([]byte, NonceSize)
	if err := fillRandom(nonce); err != nil {
		return nil, 0, err
	}
	out := &GroupedHeader{RekeyNonce: nonce}
	for start := 0; start < len(rows); start += groupSize {
		end := start + groupSize
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[start:end]
		hdrs, skeys, err := BuildMulti(chunk, len(chunk), 1)
		if err != nil {
			return nil, 0, fmt.Errorf("core: group starting at %d: %w", start, err)
		}
		out.Shards = append(out.Shards, GroupShard{Hdr: hdrs[0], Wrap: out.WrapKey(key, skeys[0])})
	}
	return out, key, nil
}

// DeriveKeyGrouped recovers the configuration key from a grouped header by
// trying each shard: derive the shard's group key from the sub-header, then
// unwrap. A non-member's derivation from the wrong shard yields an
// unpredictable candidate rather than an error, so verification happens — as
// everywhere in the system — through the verify callback (typically
// authenticated decryption of the payload). It returns the accepted key and
// the shard index; callers should remember the index as a hint, since sticky
// grouping keeps it stable across rekeys. With a nil verify the first
// candidate is returned.
func DeriveKeyGrouped(css []CSS, g *GroupedHeader, verify func(ff64.Elem) bool) (ff64.Elem, int, error) {
	if g == nil || len(g.Shards) == 0 {
		return 0, -1, ErrBadHeader
	}
	for i, sh := range g.Shards {
		s, err := DeriveKey(css, sh.Hdr)
		if err != nil {
			continue
		}
		k := g.Unwrap(i, s)
		if verify == nil || verify(k) {
			return k, i, nil
		}
	}
	return 0, -1, ErrBadKey
}

func fillRandom(b []byte) error {
	if _, err := rand.Read(b); err != nil {
		return fmt.Errorf("core: generating nonce: %w", err)
	}
	return nil
}
