// Package wire defines a deterministic, language-neutral binary encoding
// for the protocol messages of the system: ACV headers, full broadcast
// packages, and the batched registration exchange. The TCP transport uses
// Go's gob for convenience; this format is the stable interchange
// representation (e.g. for publishing broadcast files, CDN distribution, or
// non-Go subscribers) and is what Header.Size accounting corresponds to.
//
// All integers are big-endian. Every message starts with a one-byte format
// version. Strings and byte fields are length-prefixed with uint32.
package wire

import (
	"errors"
	"fmt"
	"math/big"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/idtoken"
	"ppcd/internal/linalg"
	"ppcd/internal/ocbe"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// Version is the original format version byte (single-ACV headers).
const Version = 1

// VersionGrouped marks messages carrying grouped (§VIII-C) headers: one
// small sub-header per subscriber shard plus a wrapped configuration key.
// Decoders accept both versions; encoders emit VersionGrouped only when a
// grouped header is present, so ungrouped traffic stays byte-identical to
// the old format.
const VersionGrouped = 2

// Errors returned by the decoders.
var (
	ErrTruncated  = errors.New("wire: truncated message")
	ErrBadVersion = errors.New("wire: unsupported format version")
	ErrOversize   = errors.New("wire: length field exceeds limits")
)

// maxField caps individual length fields to keep a corrupt length byte from
// driving huge allocations.
const maxField = 1 << 28 // 256 MiB

// maxGroupShards clamps the shard count of one grouped header; far above any
// real grouping (it exceeds the registration batch cap) but small enough
// that a crafted count cannot drive the decode loop.
const maxGroupShards = 1 << 16

// maxHeaderBudget bounds the cumulative decoded size of all grouped
// sub-headers in one message, mirroring the transport's 64 MiB per-request
// gob budget so a wire-decoded broadcast can never out-allocate a
// transport-decoded one.
const maxHeaderBudget = 64 << 20

// writer and reader delegate to the shared codec primitives (the third and
// last of the repo's hand-rolled codecs to land on them — the durable state
// blobs and the store WAL records moved earlier). The wrappers keep wire's
// historical method signatures so the encoders and decoders read unchanged,
// translate codec's sentinels into wire's, and preserve the exact byte
// formats — the round-trip tests pin them.

// writer encodes one message. runs is the nonce-run table of the stream
// frame being written (marshalFrame in stream.go); the v1/v2 codecs have none.
type writer struct {
	w    codec.Writer
	runs *runTable
}

func (w *writer) u8(v byte)      { w.w.U8(v) }
func (w *writer) u32(v uint32)   { w.w.U32(int(v)) }
func (w *writer) u64(v uint64)   { w.w.U64(v) }
func (w *writer) bytes(p []byte) { w.w.Bytes(p) }
func (w *writer) str(s string)   { w.w.Str(s) }
func (w *writer) out() []byte    { return w.w.Out() }

// vec writes a count-prefixed vector of field elements (a header's X).
func (w *writer) vec(x linalg.Vector) {
	w.u32(uint32(len(x)))
	for _, e := range x {
		w.u64(uint64(e))
	}
}

// reader decodes one message. runs and check are the stream-frame run
// table: the runs as decoded, and the table re-collected from the decoded
// headers to hold the frame to its canonical form (stream.go).
type reader struct {
	r     *codec.Reader
	runs  []frameRun
	check runTable
}

func newReader(data []byte) *reader {
	// The codec budget carries the cumulative grouped-sub-header allowance
	// (maxHeaderBudget per message).
	return &reader{r: codec.NewReader(data, codec.NewBudget(maxHeaderBudget))}
}

// wireErr maps the codec sentinels onto wire's, keeping the package's
// documented error contract (errors.Is against wire.ErrTruncated /
// wire.ErrOversize) independent of the backing primitives.
func wireErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, codec.ErrTruncated):
		return ErrTruncated
	case errors.Is(err, codec.ErrOversize):
		return ErrOversize
	}
	return err
}

// takeHeaderBudget charges n bytes of decoded grouped-header material
// against the message budget.
func (r *reader) takeHeaderBudget(n int) error {
	return wireErr(r.r.Charge(n))
}

func (r *reader) u8() (byte, error) {
	v, err := r.r.U8()
	return v, wireErr(err)
}

func (r *reader) u32() (uint32, error) {
	v, err := r.r.U32()
	return v, wireErr(err)
}

func (r *reader) u64() (uint64, error) {
	v, err := r.r.U64()
	return v, wireErr(err)
}

func (r *reader) bytes() ([]byte, error) {
	b, err := r.r.Bytes(maxField)
	return b, wireErr(err)
}

func (r *reader) str() (string, error) {
	s, err := r.r.Str(maxField)
	return s, wireErr(err)
}

// count reads a u32 count or index clamped to max.
func (r *reader) count(max int) (int, error) {
	n, err := r.r.Len(max)
	return n, wireErr(err)
}

func (r *reader) done() error {
	if n := r.r.Remaining(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes", n)
	}
	return nil
}

// MarshalHeader encodes an ACV header.
func MarshalHeader(h *core.Header) []byte {
	var w writer
	w.u8(Version)
	writeHeaderBody(&w, h)
	return w.out()
}

// writeHeaderBody encodes a header in the v1/v2 form, which lists the
// nonces: those of a header that rests as a seed are expanded for it.
func writeHeaderBody(w *writer, h *core.Header) {
	w.vec(h.X)
	zs := h.Nonces()
	w.u32(uint32(len(zs)))
	for _, z := range zs {
		w.bytes(z)
	}
}

// UnmarshalHeader decodes an ACV header and validates its shape
// (|X| = N + 1, field elements reduced).
func UnmarshalHeader(data []byte) (*core.Header, error) {
	r := newReader(data)
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, ErrBadVersion
	}
	h, err := readHeaderBody(r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// readX decodes a header's X: count clamped — to the entries the remaining
// input can hold, before it sizes the vector — and every element reduced.
func readX(r *reader) (linalg.Vector, error) {
	nx, err := r.count(min(maxField, r.r.Remaining()) / 8)
	if err != nil {
		return nil, err
	}
	x := make(linalg.Vector, nx)
	for i := range x {
		raw, err := r.u64()
		if err != nil {
			return nil, err
		}
		if raw >= ff64.Modulus {
			return nil, fmt.Errorf("wire: X[%d] not a reduced field element", i)
		}
		x[i] = ff64.Elem(raw)
	}
	return x, nil
}

func readHeaderBody(r *reader) (*core.Header, error) {
	x, err := readX(r)
	if err != nil {
		return nil, err
	}
	// Every nonce brings at least its 4-byte length prefix.
	nz, err := r.count(min(maxField/core.NonceSize, r.r.Remaining()/4))
	if err != nil {
		return nil, err
	}
	zs := make([][]byte, nz)
	for i := range zs {
		z, err := r.bytes()
		if err != nil {
			return nil, err
		}
		zs[i] = z
	}
	h := &core.Header{X: x, Zs: zs}
	if len(h.X) != len(h.Zs)+1 {
		return nil, fmt.Errorf("wire: header shape |X|=%d, N=%d", len(h.X), len(h.Zs))
	}
	return h, nil
}

// readSubHeader decodes one sub-header of a standalone grouped header and
// charges its decoded size against the message budget.
func readSubHeader(r *reader) (*core.Header, error) {
	h, err := readHeaderBody(r)
	if err != nil {
		return nil, err
	}
	return h, r.takeHeaderBudget(h.Size())
}

// MarshalGroupedHeader encodes a grouped (§VIII-C) header. Like
// MarshalHeader for single headers, this is the standalone interchange form
// (broadcast files, CDN distribution); the broadcast codec embeds the same
// body. A direct-mode header (nil RekeyNonce — only produced by the
// UnmarshalGroupedHeader fallback for old single-header messages, hence
// always exactly one shard) re-encodes as the Version 1 message it came
// from, so decode→encode round trips stay stable; direct mode has no
// multi-shard encoding.
func MarshalGroupedHeader(g *core.GroupedHeader) []byte {
	if g.RekeyNonce == nil && len(g.Shards) == 1 {
		return MarshalHeader(g.Shards[0].Hdr)
	}
	var w writer
	w.u8(VersionGrouped)
	writeGroupedBody(&w, g, writeHeaderBody)
	return w.out()
}

// writeGroupedBody encodes a grouped header around hdr, the sub-header form
// of the enclosing message: writeHeaderBody in the standalone v2 codecs,
// writeFrameHeader in a stream frame.
func writeGroupedBody(w *writer, g *core.GroupedHeader, hdr func(*writer, *core.Header)) {
	w.bytes(g.RekeyNonce)
	w.u32(uint32(len(g.Shards)))
	for _, sh := range g.Shards {
		hdr(w, sh.Hdr)
		w.u64(uint64(sh.Wrap))
	}
}

// UnmarshalGroupedHeader decodes a grouped header. It also accepts the old
// single-header format (Version 1), returning it as a one-shard direct-mode
// grouped header, so readers upgraded to the grouped decoder keep
// understanding pre-grouping publishers.
func UnmarshalGroupedHeader(data []byte) (*core.GroupedHeader, error) {
	r := newReader(data)
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	var g *core.GroupedHeader
	switch v {
	case Version:
		h, err := readHeaderBody(r)
		if err != nil {
			return nil, err
		}
		g = &core.GroupedHeader{Shards: []core.GroupShard{{Hdr: h}}}
	case VersionGrouped:
		if g, err = readGroupedBody(r, readSubHeader); err != nil {
			return nil, err
		}
	default:
		return nil, ErrBadVersion
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return g, nil
}

// readGroupedBody decodes a grouped header body with the hardened clamps:
// shard count bounded, every sub-header well-shaped with uniformly NonceSize
// nonces, wraps reduced. hdr decodes one sub-header in the form of the
// enclosing message and charges it against the message's 64 MiB budget
// (readSubHeader in the standalone v2 codecs, readFrameHeader in a frame).
func readGroupedBody(r *reader, hdr func(*reader) (*core.Header, error)) (*core.GroupedHeader, error) {
	nonce, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if len(nonce) != core.NonceSize {
		return nil, fmt.Errorf("wire: grouped rekey nonce of %d bytes, want %d", len(nonce), core.NonceSize)
	}
	ns, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ns == 0 || ns > maxGroupShards {
		return nil, ErrOversize
	}
	g := &core.GroupedHeader{RekeyNonce: nonce, Shards: make([]core.GroupShard, 0, capHint(ns))}
	for i := uint32(0); i < ns; i++ {
		h, err := hdr(r)
		if err != nil {
			return nil, err
		}
		if err := checkNonceSize(h); err != nil {
			return nil, fmt.Errorf("wire: grouped sub-header %d: %w", i, err)
		}
		raw, err := r.u64()
		if err != nil {
			return nil, err
		}
		if raw >= ff64.Modulus {
			return nil, fmt.Errorf("wire: shard %d wrap not a reduced field element", i)
		}
		g.Shards = append(g.Shards, core.GroupShard{Hdr: h, Wrap: ff64.Elem(raw)})
	}
	return g, nil
}

// checkNonceSize holds a grouped sub-header to NonceSize nonces; those a seed
// names have that length by construction.
func checkNonceSize(h *core.Header) error {
	for _, z := range h.Zs {
		if len(z) != core.NonceSize {
			return fmt.Errorf("%d-byte nonce, want %d", len(z), core.NonceSize)
		}
	}
	return nil
}

// MarshalBroadcast encodes a complete broadcast package. The version byte is
// VersionGrouped iff any configuration carries a grouped header; ungrouped
// broadcasts keep the original byte-identical Version 1 encoding.
func MarshalBroadcast(b *pubsub.Broadcast) []byte {
	ver := byte(Version)
	for _, ci := range b.Configs {
		if ci.Grouped != nil {
			ver = VersionGrouped
			break
		}
	}
	var w writer
	w.u8(ver)
	w.str(b.DocName)

	w.u32(uint32(len(b.Policies)))
	for _, pi := range b.Policies {
		w.str(pi.ID)
		w.u32(uint32(len(pi.CondIDs)))
		for _, c := range pi.CondIDs {
			w.str(c)
		}
	}

	w.u32(uint32(len(b.Configs)))
	for _, ci := range b.Configs {
		w.str(string(ci.Key))
		switch {
		case ci.Grouped != nil:
			w.u8(2)
			writeGroupedBody(&w, ci.Grouped, writeHeaderBody)
		case ci.Header != nil:
			w.u8(1)
			writeHeaderBody(&w, ci.Header)
		default:
			w.u8(0)
		}
	}

	w.u32(uint32(len(b.Items)))
	for _, it := range b.Items {
		w.str(it.Subdoc)
		w.str(string(it.Config))
		w.bytes(it.Ciphertext)
	}
	return w.out()
}

// maxEnvelopeDepth bounds the recursion of nested OCBE sub-envelopes. The
// protocols produce depth ≤ 2 (a ≠ envelope containing two leaf envelopes).
const maxEnvelopeDepth = 4

// capHint clamps an attacker-controlled element count before it is used as
// a preallocation capacity; append grows the slice past it as real payload
// bytes arrive.
func capHint(n uint32) int {
	if n > 1024 {
		return 1024
	}
	return int(n)
}

// MarshalRegistrationBatch encodes a batched registration request: every
// (token, condition, OCBE receiver message) triple a subscriber submits in
// one round trip. Nil requests or nil fields — which the publisher rejects
// per item rather than per batch — encode as empty placeholders instead of
// panicking.
func MarshalRegistrationBatch(reqs []*pubsub.RegistrationRequest) []byte {
	var w writer
	w.u8(Version)
	w.u32(uint32(len(reqs)))
	for _, req := range reqs {
		if req == nil {
			req = &pubsub.RegistrationRequest{}
		}
		tok := req.Token
		if tok == nil {
			tok = &idtoken.Token{}
		}
		w.str(tok.Nym)
		w.str(tok.Tag)
		w.bytes(tok.Commitment)
		w.bytes(tok.Sig)
		w.str(req.CondID)
		ocbeReq := req.OCBE
		if ocbeReq == nil {
			ocbeReq = &ocbe.Request{}
		}
		writeOCBERequest(&w, ocbeReq)
	}
	return w.out()
}

func writeOCBERequest(w *writer, req *ocbe.Request) {
	w.bytes(req.Commitment)
	w.u32(uint32(len(req.Bits)))
	for _, bc := range req.Bits {
		if bc == nil { // equality sub-predicate placeholder
			w.u32(0)
			continue
		}
		w.u32(uint32(len(bc.Cs)))
		for _, c := range bc.Cs {
			w.bytes(c)
		}
	}
}

// UnmarshalRegistrationBatch decodes a batched registration request.
func UnmarshalRegistrationBatch(data []byte) ([]*pubsub.RegistrationRequest, error) {
	r := newReader(data)
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, ErrBadVersion
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, ErrOversize
	}
	out := make([]*pubsub.RegistrationRequest, 0, capHint(n))
	for i := uint32(0); i < n; i++ {
		tok := &idtoken.Token{}
		if tok.Nym, err = r.str(); err != nil {
			return nil, err
		}
		if tok.Tag, err = r.str(); err != nil {
			return nil, err
		}
		if tok.Commitment, err = r.bytes(); err != nil {
			return nil, err
		}
		if tok.Sig, err = r.bytes(); err != nil {
			return nil, err
		}
		req := &pubsub.RegistrationRequest{Token: tok}
		if req.CondID, err = r.str(); err != nil {
			return nil, err
		}
		if req.OCBE, err = readOCBERequest(r); err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func readOCBERequest(r *reader) (*ocbe.Request, error) {
	req := &ocbe.Request{}
	var err error
	if req.Commitment, err = r.bytes(); err != nil {
		return nil, err
	}
	nb, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nb > 1<<16 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < nb; i++ {
		nc, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nc > 1<<16 {
			return nil, ErrOversize
		}
		bc := &ocbe.BitCommitments{Cs: make([][]byte, 0, capHint(nc))}
		for j := uint32(0); j < nc; j++ {
			c, err := r.bytes()
			if err != nil {
				return nil, err
			}
			bc.Cs = append(bc.Cs, c)
		}
		req.Bits = append(req.Bits, bc)
	}
	return req, nil
}

// MarshalBatchReply encodes the publisher's reply to a registration batch:
// per item either an OCBE envelope or an error message.
func MarshalBatchReply(results []pubsub.BatchResult) []byte {
	var w writer
	w.u8(Version)
	w.u32(uint32(len(results)))
	for _, res := range results {
		w.str(res.CondID)
		w.str(res.Err)
		if res.Envelope == nil {
			w.u8(0)
			continue
		}
		w.u8(1)
		writeEnvelope(&w, res.Envelope)
	}
	return w.out()
}

func writeEnvelope(w *writer, env *ocbe.Envelope) {
	w.u8(byte(env.Op))
	if env.X0 == nil {
		w.u8(0)
	} else if env.X0.Sign() >= 0 {
		w.u8(1)
		w.bytes(env.X0.Bytes())
	} else {
		w.u8(2)
		w.bytes(new(big.Int).Neg(env.X0).Bytes())
	}
	w.u32(uint32(env.Ell))
	w.bytes(env.Eta)
	w.bytes(env.C)
	w.u32(uint32(len(env.Bits)))
	for _, bp := range env.Bits {
		w.bytes(bp.C0)
		w.bytes(bp.C1)
	}
	w.u32(uint32(len(env.Sub)))
	for _, sub := range env.Sub {
		writeEnvelope(w, sub)
	}
}

// UnmarshalBatchReply decodes a registration batch reply.
func UnmarshalBatchReply(data []byte) ([]pubsub.BatchResult, error) {
	r := newReader(data)
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, ErrBadVersion
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, ErrOversize
	}
	out := make([]pubsub.BatchResult, 0, capHint(n))
	for i := uint32(0); i < n; i++ {
		var res pubsub.BatchResult
		if res.CondID, err = r.str(); err != nil {
			return nil, err
		}
		if res.Err, err = r.str(); err != nil {
			return nil, err
		}
		has, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch has {
		case 0:
		case 1:
			if res.Envelope, err = readEnvelope(r, 0); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wire: bad envelope presence byte %d", has)
		}
		out = append(out, res)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func readEnvelope(r *reader, depth int) (*ocbe.Envelope, error) {
	if depth > maxEnvelopeDepth {
		return nil, fmt.Errorf("wire: envelope nesting exceeds depth %d", maxEnvelopeDepth)
	}
	env := &ocbe.Envelope{}
	op, err := r.u8()
	if err != nil {
		return nil, err
	}
	env.Op = ocbe.CompareOp(op)
	sign, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch sign {
	case 0:
	case 1, 2:
		raw, err := r.bytes()
		if err != nil {
			return nil, err
		}
		env.X0 = new(big.Int).SetBytes(raw)
		if sign == 2 {
			env.X0.Neg(env.X0)
		}
	default:
		return nil, fmt.Errorf("wire: bad X0 sign byte %d", sign)
	}
	ell, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ell > 1<<16 {
		return nil, ErrOversize
	}
	env.Ell = int(ell)
	if env.Eta, err = r.bytes(); err != nil {
		return nil, err
	}
	if env.C, err = r.bytes(); err != nil {
		return nil, err
	}
	nb, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nb > 1<<16 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < nb; i++ {
		var bp ocbe.BitPair
		if bp.C0, err = r.bytes(); err != nil {
			return nil, err
		}
		if bp.C1, err = r.bytes(); err != nil {
			return nil, err
		}
		env.Bits = append(env.Bits, bp)
	}
	ns, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ns > 16 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ns; i++ {
		sub, err := readEnvelope(r, depth+1)
		if err != nil {
			return nil, err
		}
		env.Sub = append(env.Sub, sub)
	}
	return env, nil
}

// UnmarshalBroadcast decodes a broadcast package, accepting both the
// original single-header format and the grouped VersionGrouped format.
func UnmarshalBroadcast(data []byte) (*pubsub.Broadcast, error) {
	r := newReader(data)
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != Version && v != VersionGrouped {
		return nil, ErrBadVersion
	}
	b := &pubsub.Broadcast{}
	if b.DocName, err = r.str(); err != nil {
		return nil, err
	}

	np, err := r.u32()
	if err != nil {
		return nil, err
	}
	if np > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < np; i++ {
		var pi pubsub.PolicyInfo
		if pi.ID, err = r.str(); err != nil {
			return nil, err
		}
		nc, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nc > 1<<20 {
			return nil, ErrOversize
		}
		for j := uint32(0); j < nc; j++ {
			c, err := r.str()
			if err != nil {
				return nil, err
			}
			pi.CondIDs = append(pi.CondIDs, c)
		}
		b.Policies = append(b.Policies, pi)
	}

	ncfg, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ncfg > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ncfg; i++ {
		var ci pubsub.ConfigInfo
		key, err := r.str()
		if err != nil {
			return nil, err
		}
		ci.Key = policy.ConfigKey(key)
		has, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch {
		case has == 0:
		case has == 1:
			if ci.Header, err = readHeaderBody(r); err != nil {
				return nil, err
			}
		case has == 2 && v == VersionGrouped:
			if ci.Grouped, err = readGroupedBody(r, readSubHeader); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wire: bad header presence byte %d", has)
		}
		b.Configs = append(b.Configs, ci)
	}

	ni, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ni > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ni; i++ {
		var it pubsub.Item
		if it.Subdoc, err = r.str(); err != nil {
			return nil, err
		}
		cfg, err := r.str()
		if err != nil {
			return nil, err
		}
		it.Config = policy.ConfigKey(cfg)
		if it.Ciphertext, err = r.bytes(); err != nil {
			return nil, err
		}
		b.Items = append(b.Items, it)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return b, nil
}
