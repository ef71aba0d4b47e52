package transport

import (
	"testing"

	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// cannedRegistrar answers every batch with the same results, so the
// benchmark times the RPC — encode, loopback, decode on both sides — and not
// the OCBE composition behind it.
type cannedRegistrar struct {
	*pubsub.Publisher
	results []pubsub.BatchResult
}

func (c cannedRegistrar) RegisterBatch([]*pubsub.RegistrationRequest) ([]pubsub.BatchResult, error) {
	return c.results, nil
}

// BenchmarkRegisterBatchRoundTrip sends one subscriber's registration for 4
// conditions — two equalities, two inequalities of ℓ = 8 — over one
// persistent loopback connection and decodes the 4 real envelopes it gets
// back. B/op and allocs/op count client and server together.
func BenchmarkRegisterBatchRoundTrip(b *testing.B) {
	params, err := pedersen.Setup(g2.MustPaperCurve(), []byte("transport-bench"))
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := idtoken.NewManager(params)
	if err != nil {
		b.Fatal(err)
	}
	var acps []*policy.ACP
	for _, p := range [][2]string{{"adult", "age >= 18"}, {"senior", "level >= 59"}, {"staff", "role = doc"}, {"ward", "ward = 12"}} {
		acp, err := policy.New(p[0], p[1], "news.txt", "body")
		if err != nil {
			b.Fatal(err)
		}
		acps = append(acps, acp)
	}
	pub, err := pubsub.NewPublisher(params, mgr.PublicKey(), acps, pubsub.Options{Ell: 8})
	if err != nil {
		b.Fatal(err)
	}
	values := map[string]string{"age": "30", "level": "60", "role": "doc", "ward": "12"}
	var reqs []*pubsub.RegistrationRequest
	for _, cond := range pub.Conditions() {
		tok, sec, err := mgr.IssueString("pn-bench", cond.Attr, values[cond.Attr])
		if err != nil {
			b.Fatal(err)
		}
		pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(params.Order(), cond.Value)}
		_, req, err := ocbe.NewReceiver(params, sec.Value, sec.Blinding).Prepare(pred, pub.Ell())
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, &pubsub.RegistrationRequest{Token: tok, CondID: cond.ID(), OCBE: req})
	}
	results, err := pub.RegisterBatch(reqs)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServerWithBackend(cannedRegistrar{pub, results}, "")
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, params)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := client.RegisterBatch(reqs)
		if err != nil || len(got) != len(reqs) || got[0].Envelope == nil {
			b.Fatalf("round trip: %d results, %v", len(got), err)
		}
	}
}
