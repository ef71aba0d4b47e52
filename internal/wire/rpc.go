// RPC messages: what a subscriber (or a relay's registration proxy) and a
// publisher (or relay) exchange on a request/reply connection. The transport
// frames each as u32 length ‖ payload; the payload of a request opens with
// its kind, that of a reply with a status:
//
//	request = kind ‖ body
//	reply   = status ‖ body
//
//	kind              request body                  reply body (StatusOK)
//	KindInfo          —                             ell ‖ origin ‖ count ‖ (attr ‖ op ‖ value)…
//	KindRegisterBatch registration batch            batch reply: an envelope or a refusal per item
//	KindFetch         doc                           the retained snapshot frame
//	KindSubscribe     doc ‖ lastEpoch ‖ lastGen     none: the connection becomes a frame stream
//
// A StatusError reply's body is the refusal's text, whatever the kind; the
// client returns it as a *RemoteError. On a subscribed connection every
// payload is a stream frame, which opens with VersionStream and never with a
// status, so a subscribe the server refuses is told apart by its first byte.
package wire

import (
	"errors"
	"fmt"
	"math/big"

	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// Kind names what a request asks for.
type Kind byte

// The request kinds.
const (
	KindInfo          Kind = 1
	KindRegisterBatch Kind = 2
	KindFetch         Kind = 3
	KindSubscribe     Kind = 4
)

// The reply statuses.
const (
	StatusOK    byte = 0
	StatusError byte = 1
)

// Request is one decoded request.
type Request struct {
	Kind  Kind
	Batch []*pubsub.RegistrationRequest // KindRegisterBatch
	// Doc names the document: KindFetch's ("" = the latest published) or
	// KindSubscribe's filter ("" = every document).
	Doc string
	// LastEpoch / LastGen are a subscriber's last applied epoch and its
	// publisher generation (KindSubscribe; 0, 0 = none).
	LastEpoch, LastGen uint64
}

// Info is what a server tells a client about itself: the inequality bit
// bound ℓ, the origin's address when the server is a relay ("" at the
// origin), and every condition of its policies.
type Info struct {
	Ell        int
	Origin     string
	Conditions []policy.Condition
}

// Reply is one decoded StatusOK reply; the field of the request's kind is
// set.
type Reply struct {
	Info     *Info                // KindInfo
	Batch    []pubsub.BatchResult // KindRegisterBatch
	Snapshot *pubsub.Broadcast    // KindFetch
}

// RemoteError is a request the server refused, carrying the server's text.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Registration limits. maxBatchItems is far above the publisher's 4096-item
// cap, which stays the publisher's to enforce and report; the decoder only
// keeps a count from outrunning the bytes that back it.
const (
	maxBatchItems = 1 << 20
	maxEll        = 1 << 16
	// minBatchItem is the smallest encoded registration: five empty
	// length-prefixed fields and an OCBE request of no bit commitments.
	minBatchItem = 5*4 + 4 + 4
	// minCondition is the smallest encoded condition: two empty strings and
	// the operator byte.
	minCondition = 4 + 1 + 4
)

// MarshalRequest encodes a request's payload: its kind, then its body.
func MarshalRequest(req *Request) []byte {
	var w writer
	w.u8(byte(req.Kind))
	switch req.Kind {
	case KindRegisterBatch:
		writeRegistrationBatch(&w, req.Batch)
	case KindFetch:
		w.str(req.Doc)
	case KindSubscribe:
		w.str(req.Doc)
		w.u64(req.LastEpoch)
		w.u64(req.LastGen)
	}
	return w.out()
}

// UnmarshalRequest decodes a request's payload. An unknown kind is an error:
// a server drops the connection rather than guess at what follows.
func UnmarshalRequest(msg []byte) (*Request, error) {
	r := newReader(msg)
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	req := &Request{Kind: Kind(kind)}
	switch req.Kind {
	case KindInfo:
	case KindRegisterBatch:
		req.Batch, err = readRegistrationBatch(r)
	case KindFetch:
		req.Doc, err = r.str()
	case KindSubscribe:
		if req.Doc, err = r.str(); err != nil {
			return nil, err
		}
		if req.LastEpoch, err = r.u64(); err != nil {
			return nil, err
		}
		req.LastGen, err = r.u64()
	default:
		return nil, fmt.Errorf("wire: unknown request kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return req, r.done()
}

// UnmarshalReply decodes the payload of the reply to a request of the given
// kind: a *RemoteError for StatusError, else the body of that kind. A fetch
// must be answered with a snapshot frame.
func UnmarshalReply(kind Kind, msg []byte) (*Reply, error) {
	r := newReader(msg)
	status, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusOK:
	case StatusError:
		if len(msg) == 1 {
			return nil, errors.New("wire: error reply without a message")
		}
		return nil, &RemoteError{Msg: string(msg[1:])}
	default:
		return nil, fmt.Errorf("wire: unknown reply status %d", status)
	}
	rep := &Reply{}
	switch kind {
	case KindInfo:
		rep.Info, err = readInfo(r)
	case KindRegisterBatch:
		rep.Batch, err = readBatchReply(r)
	case KindFetch:
		f, err := UnmarshalFrame(msg[1:])
		if err != nil {
			return nil, err
		}
		if f.Type != FrameSnapshot {
			return nil, fmt.Errorf("wire: fetch answered with frame type %d", f.Type)
		}
		return &Reply{Snapshot: f.Snapshot}, nil
	default:
		return nil, fmt.Errorf("wire: no reply is sent to a request of kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return rep, r.done()
}

// MarshalInfo encodes the body of an info reply.
func MarshalInfo(info *Info) []byte {
	var w writer
	w.u32(uint32(info.Ell))
	w.str(info.Origin)
	w.u32(uint32(len(info.Conditions)))
	for _, c := range info.Conditions {
		w.str(c.Attr)
		w.u8(byte(c.Op))
		w.str(c.Value)
	}
	return w.out()
}

// readInfo decodes an info body. Every condition must pass
// policy.Condition.Validate: a client registers against these, and an
// unknown operator or an inequality over a non-number is no condition.
func readInfo(r *reader) (*Info, error) {
	ell, err := r.count(maxEll)
	if err != nil {
		return nil, err
	}
	info := &Info{Ell: ell}
	if info.Origin, err = r.str(); err != nil {
		return nil, err
	}
	n, err := r.count(r.r.Remaining() / minCondition)
	if err != nil {
		return nil, err
	}
	info.Conditions = make([]policy.Condition, n)
	for i := range info.Conditions {
		c := &info.Conditions[i]
		if c.Attr, err = r.str(); err != nil {
			return nil, err
		}
		op, err := r.u8()
		if err != nil {
			return nil, err
		}
		c.Op = ocbe.CompareOp(op)
		if c.Value, err = r.str(); err != nil {
			return nil, err
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("wire: server condition %d: %w", i, err)
		}
	}
	return info, nil
}

// writeRegistrationBatch encodes a batched registration request: every
// (token, condition, OCBE receiver message) triple a subscriber submits in
// one round trip. Nil requests or nil fields — which the publisher rejects
// per item rather than per batch — encode as empty placeholders instead of
// panicking.
func writeRegistrationBatch(w *writer, reqs []*pubsub.RegistrationRequest) {
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
		writeOCBERequest(w, ocbeReq)
	}
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

func readRegistrationBatch(r *reader) ([]*pubsub.RegistrationRequest, error) {
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, ErrBadVersion
	}
	n, err := r.count(min(maxBatchItems, r.r.Remaining()/minBatchItem))
	if err != nil {
		return nil, err
	}
	out := make([]*pubsub.RegistrationRequest, 0, n)
	for i := 0; i < n; i++ {
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

// maxEnvelopeDepth bounds the recursion of nested OCBE sub-envelopes. The
// protocols produce depth ≤ 2 (a ≠ envelope containing two leaf envelopes).
const maxEnvelopeDepth = 4

// MarshalBatchReply encodes the body of the publisher's reply to a
// registration batch: per item either an OCBE envelope or an error message.
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

func readBatchReply(r *reader) ([]pubsub.BatchResult, error) {
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
	if n > maxBatchItems {
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
	if ell > maxEll {
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
