package wire

import (
	"bytes"
	"errors"
	"testing"

	"ppcd/internal/document"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/schnorr"
)

// exchange is one reply payload together with the kind of request it
// answers.
type exchange struct {
	kind Kind
	msg  []byte
}

// liveRPC runs one real registration and fetch against a publisher and
// returns the request payloads a subscriber sent — info, a register-batch of
// equality, inequality and ≠ conditions plus one the publisher refuses,
// fetch, subscribe — and the replies it got, a refusal among them.
func liveRPC(tb testing.TB) (reqs [][]byte, replies []exchange) {
	tb.Helper()
	params, err := pedersen.Setup(schnorr.Must2048(), []byte("wire-rpc-test"))
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := idtoken.NewManager(params)
	if err != nil {
		tb.Fatal(err)
	}
	var acps []*policy.ACP
	for _, p := range [][2]string{{"adult", "age >= 18"}, {"staff", "role = vip"}, {"other", "age != 7"}} {
		acp, err := policy.New(p[0], p[1], "news", "body")
		if err != nil {
			tb.Fatal(err)
		}
		acps = append(acps, acp)
	}
	pub, err := pubsub.NewPublisher(params, mgr.PublicKey(), acps, pubsub.Options{Ell: 8})
	if err != nil {
		tb.Fatal(err)
	}
	values := map[string]string{"age": "30", "role": "vip"}
	var batch []*pubsub.RegistrationRequest
	for _, cond := range pub.Conditions() {
		tok, sec, err := mgr.IssueString("pn-live", cond.Attr, values[cond.Attr])
		if err != nil {
			tb.Fatal(err)
		}
		recv := ocbe.NewReceiver(params, sec.Value, sec.Blinding)
		_, req, err := recv.Prepare(ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(params.Order(), cond.Value)}, pub.Ell())
		if err != nil {
			tb.Fatal(err)
		}
		batch = append(batch, &pubsub.RegistrationRequest{Token: tok, CondID: cond.ID(), OCBE: req})
	}
	batch = append(batch, &pubsub.RegistrationRequest{Token: batch[0].Token, CondID: "ghost = 1", OCBE: batch[0].OCBE})
	results, err := pub.RegisterBatch(batch)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := document.New("news", document.Subdocument{Name: "body", Content: []byte("story")})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := pub.Publish(doc)
	if err != nil {
		tb.Fatal(err)
	}
	for _, req := range []*Request{
		{Kind: KindInfo},
		{Kind: KindRegisterBatch, Batch: batch},
		{Kind: KindFetch, Doc: "news"},
		{Kind: KindSubscribe, Doc: "news", LastEpoch: b.Epoch, LastGen: b.Gen},
	} {
		reqs = append(reqs, MarshalRequest(req))
	}
	ok := func(body []byte) []byte { return append([]byte{StatusOK}, body...) }
	replies = []exchange{
		{KindInfo, ok(MarshalInfo(&Info{Ell: pub.Ell(), Origin: "origin:7468", Conditions: pub.Conditions()}))},
		{KindRegisterBatch, ok(MarshalBatchReply(results))},
		{KindFetch, ok(MarshalSnapshotFrame(b))},
		{KindRegisterBatch, append([]byte{StatusError}, "pubsub: empty registration batch"...)},
	}
	return reqs, replies
}

// TestRPCRoundTrip: every live request decodes to what was sent and
// re-encodes byte-identically, every live reply decodes to its kind's value,
// and a refusal is a *RemoteError carrying the server's text.
func TestRPCRoundTrip(t *testing.T) {
	reqs, replies := liveRPC(t)
	for _, raw := range reqs {
		req, err := UnmarshalRequest(raw)
		if err != nil {
			t.Fatalf("request of kind %d: %v", raw[0], err)
		}
		if !bytes.Equal(MarshalRequest(req), raw) {
			t.Errorf("request of kind %d does not re-encode byte-identically", raw[0])
		}
	}
	info, err := UnmarshalReply(KindInfo, replies[0].msg)
	if err != nil || info.Info.Ell != 8 || info.Info.Origin != "origin:7468" || len(info.Info.Conditions) != 3 {
		t.Fatalf("info reply: %+v, %v", info, err)
	}
	batch, err := UnmarshalReply(KindRegisterBatch, replies[1].msg)
	if err != nil || len(batch.Batch) != 4 || batch.Batch[3].Err == "" || batch.Batch[0].Envelope == nil {
		t.Fatalf("batch reply: %+v, %v", batch, err)
	}
	for _, res := range batch.Batch {
		if res.CondID == "age != 7" && (res.Envelope.Op != ocbe.NE || len(res.Envelope.Sub) != 2) {
			t.Errorf("the ≠ envelope decoded as op %v with %d sub-envelopes", res.Envelope.Op, len(res.Envelope.Sub))
		}
	}
	if fetched, err := UnmarshalReply(KindFetch, replies[2].msg); err != nil || fetched.Snapshot.DocName != "news" {
		t.Fatalf("fetch reply: %v", err)
	}
	var refused *RemoteError
	if _, err := UnmarshalReply(KindRegisterBatch, replies[3].msg); !errors.As(err, &refused) || refused.Msg != "pubsub: empty registration batch" {
		t.Fatalf("error reply decoded as %v", err)
	}
	if _, err := UnmarshalReply(KindFetch, append([]byte{StatusOK}, MarshalHeartbeatFrame(3)...)); err == nil {
		t.Error("fetch answered with a heartbeat accepted")
	}
}

// seedCorpus adds each message, its cut at a third, two thirds and one byte
// short of its end, and a bit flip at its middle.
func seedCorpus(msgs [][]byte, add func([]byte)) {
	for _, m := range msgs {
		add(m)
		for _, cut := range []int{len(m) / 3, 2 * len(m) / 3, len(m) - 1} {
			add(append([]byte(nil), m[:cut]...))
		}
		flip := append([]byte(nil), m...)
		flip[len(flip)/2] ^= 0x40
		add(flip)
	}
}

// FuzzRequest drives the server-side decode of every request kind —
// registration batches with their OCBE requests included — with arbitrary
// payloads, seeded from a live registration. The decoder must never panic,
// and every request it accepts must re-encode to the bytes it came from.
func FuzzRequest(f *testing.F) {
	reqs, _ := liveRPC(f)
	seedCorpus(reqs, func(b []byte) { f.Add(b) })
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{byte(KindRegisterBatch), Version, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := UnmarshalRequest(data)
		if err != nil {
			return
		}
		if re := MarshalRequest(req); !bytes.Equal(re, data) {
			t.Fatalf("accepted request of kind %d re-encodes to %d bytes from %d", req.Kind, len(re), len(data))
		}
	})
}

// FuzzReply drives the client-side decode of the reply to every kind of
// request — info with its conditions, a batch reply with nested envelopes, a
// fetched snapshot and the error status — seeded from a live registration.
// The decoder must never panic; an accepted info or snapshot re-encodes to
// its bytes, an accepted batch reply re-encodes to bytes that decode and
// re-encode unchanged, and a refusal carries the body as its text.
func FuzzReply(f *testing.F) {
	_, replies := liveRPC(f)
	for _, x := range replies {
		seedCorpus([][]byte{x.msg}, func(b []byte) { f.Add(byte(x.kind), b) })
	}
	f.Add(byte(KindInfo), []byte{StatusError})
	f.Add(byte(KindSubscribe), []byte{StatusOK})
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		rep, err := UnmarshalReply(Kind(kind), data)
		var refused *RemoteError
		if errors.As(err, &refused) {
			if data[0] != StatusError || refused.Msg != string(data[1:]) {
				t.Fatalf("refusal %q from a reply of status %d", refused.Msg, data[0])
			}
			return
		}
		if err != nil {
			return
		}
		body := data[1:]
		switch Kind(kind) {
		case KindInfo:
			if re := MarshalInfo(rep.Info); !bytes.Equal(re, body) {
				t.Fatalf("accepted info re-encodes to %d bytes from %d", len(re), len(body))
			}
		case KindRegisterBatch:
			re := MarshalBatchReply(rep.Batch)
			again, err := UnmarshalReply(KindRegisterBatch, append([]byte{StatusOK}, re...))
			if err != nil {
				t.Fatalf("re-encoded batch reply does not decode: %v", err)
			}
			if !bytes.Equal(MarshalBatchReply(again.Batch), re) {
				t.Fatal("batch reply re-encoding is not stable")
			}
		case KindFetch:
			if re := MarshalSnapshotFrame(rep.Snapshot); !bytes.Equal(re, body) {
				t.Fatalf("accepted snapshot re-encodes to %d bytes from %d", len(re), len(body))
			}
		default:
			t.Fatalf("accepted a reply to kind %d", kind)
		}
	})
}
