package ocbe_test

// The OCBE shape fuzzers are external tests: they decode hostile bytes with
// the wire codec, which imports ocbe, so envelopes and requests reach Open
// and Compose the way a peer's bytes do. Past the codec's framing, the only
// checks those bytes meet are ocbe's shape checks and g2.Unmarshal's.

import (
	"math/big"
	"testing"

	"ppcd/internal/core/coretest"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

const fuzzEll = 10

// fuzzPreds are the predicates the fuzzers' receiver registers for and their
// sender composes under; a fuzz input picks one by index.
var fuzzPreds = []ocbe.Predicate{
	{Op: ocbe.EQ, X0: big.NewInt(25)},
	{Op: ocbe.GE, X0: big.NewInt(10)},
	{Op: ocbe.GT, X0: big.NewInt(24)},
	{Op: ocbe.LE, X0: big.NewInt(100)},
	{Op: ocbe.LT, X0: big.NewInt(26)},
	{Op: ocbe.NE, X0: big.NewInt(11)},
}

// fuzzReceiver is a receiver committed to 25 and its witness and request
// for each of fuzzPreds at fuzzEll.
func fuzzReceiver(f *testing.F) (*pedersen.Params, *ocbe.Receiver, []*ocbe.Witness, []*ocbe.Request) {
	p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("ocbe-fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	x := big.NewInt(25)
	_, r, err := p.CommitRandom(x)
	if err != nil {
		f.Fatal(err)
	}
	recv := ocbe.NewReceiver(p, x, r)
	wits := make([]*ocbe.Witness, len(fuzzPreds))
	reqs := make([]*ocbe.Request, len(fuzzPreds))
	for i, pred := range fuzzPreds {
		if wits[i], reqs[i], err = recv.Prepare(pred, fuzzEll); err != nil {
			f.Fatal(err)
		}
	}
	return p, recv, wits, reqs
}

// The allocation bounds of Open and Compose. At ℓ = 10 an honest open
// allocates ≈ 20 kB and an honest compose ≈ 53 kB per bitwise sub-envelope
// (105 kB for ≠; ComposeBatch ≈ 57 kB per item): the lane kernel's tables
// and scratch. An input cannot raise the lane count — Open takes its lanes
// from the receiver's own witness and Compose from the sender's ℓ — so what
// it adds is what it carries, a few bytes per input byte.
const (
	openAllocPerByte, openAllocFixed       = 4, 64 << 10
	composeAllocPerByte, composeAllocFixed = 4, 256 << 10
)

// FuzzOpen feeds hostile registration replies — what a publisher or a relay
// in the middle sends a subscriber — to Open: no envelope may panic it, and
// no open may allocate more than openAllocPerByte per input byte plus
// openAllocFixed.
func FuzzOpen(f *testing.F) {
	p, recv, wits, reqs := fuzzReceiver(f)
	reply := func(envs ...*ocbe.Envelope) []byte {
		res := make([]pubsub.BatchResult, len(envs))
		for i, env := range envs {
			res[i] = pubsub.BatchResult{CondID: "c", Envelope: env}
		}
		return append([]byte{wire.StatusOK}, wire.MarshalBatchReply(res)...)
	}
	for i, pred := range fuzzPreds {
		env, err := ocbe.Compose(p, pred, fuzzEll, reqs[i], []byte("css"))
		if err != nil {
			f.Fatal(err)
		}
		honest := reply(env)
		f.Add(uint8(i), honest)
		f.Add(uint8(i), honest[:len(honest)/2])
		f.Add(uint8((i+1)%len(fuzzPreds)), honest) // another predicate's witness
		noX0 := *env
		noX0.X0 = nil
		f.Add(uint8(i), reply(&noX0))
		deep := &ocbe.Envelope{Op: ocbe.NE, X0: big.NewInt(11), Sub: []*ocbe.Envelope{env, {Op: ocbe.NE, Sub: []*ocbe.Envelope{env}}}}
		f.Add(uint8(i), reply(deep, env))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		rep, err := wire.UnmarshalReply(wire.KindRegisterBatch, data)
		if err != nil {
			return
		}
		wit := wits[int(which)%len(wits)]
		for _, res := range rep.Batch {
			if res.Envelope == nil {
				continue
			}
			coretest.AllocWithin(t, "registration reply", data, openAllocPerByte, openAllocFixed, func() { _, _ = recv.Open(res.Envelope, wit) })
		}
	})
}

// FuzzCompose feeds hostile registration batches — what a subscriber sends
// a publisher — to composition: no request may panic Compose, each Compose
// allocates within composeAllocPerByte per input byte plus
// composeAllocFixed, and ComposeBatch over the whole batch within that per
// request.
func FuzzCompose(f *testing.F) {
	p, _, _, reqs := fuzzReceiver(f)
	batch := func(reqs ...*ocbe.Request) []byte {
		items := make([]*pubsub.RegistrationRequest, len(reqs))
		for i, req := range reqs {
			items[i] = &pubsub.RegistrationRequest{Token: &idtoken.Token{Nym: "pn-f", Tag: "age"}, CondID: "c", OCBE: req}
		}
		return wire.MarshalRequest(&wire.Request{Kind: wire.KindRegisterBatch, Batch: items})
	}
	for i := range fuzzPreds {
		honest := batch(reqs[i])
		f.Add(uint8(i), honest)
		f.Add(uint8(i), honest[:len(honest)/2])
		f.Add(uint8((i+1)%len(fuzzPreds)), honest) // another predicate's shape
		f.Add(uint8(i), batch(reqs...))
		empty := &ocbe.Request{Commitment: reqs[i].Commitment, Bits: make([]*ocbe.BitCommitments, len(reqs[i].Bits))}
		f.Add(uint8(i), batch(empty))
	}
	msg := []byte("css")
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		req, err := wire.UnmarshalRequest(data)
		if err != nil || req.Kind != wire.KindRegisterBatch {
			return
		}
		pred := fuzzPreds[int(which)%len(fuzzPreds)]
		items := make([]ocbe.ComposeItem, len(req.Batch))
		for i, rr := range req.Batch {
			coretest.AllocWithin(t, "registration batch", data, composeAllocPerByte, composeAllocFixed, func() { _, _ = ocbe.Compose(p, pred, fuzzEll, rr.OCBE, msg) })
			items[i] = ocbe.ComposeItem{Pred: pred, Ell: fuzzEll, Req: rr.OCBE, Msg: msg}
		}
		n := uint64(max(1, len(items)))
		coretest.AllocWithin(t, "registration batch", data, composeAllocPerByte, n*composeAllocFixed, func() { ocbe.ComposeBatch(p, items) })
	})
}
